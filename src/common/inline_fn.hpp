// Move-only callable wrapper with guaranteed small-buffer storage —
// the event-closure currency of the hot path. std::function's inline
// buffer (16 bytes on libstdc++, trivially-copyable captures only)
// heap-allocates every scheduler event that captures a shared_ptr plus
// a payload, which at wire rates dominated the allocation profile. An
// InlineFn constructs the callable directly inside a 64-byte slot, so
// scheduling an event performs zero allocations for every closure the
// sim actually builds; oversized captures degrade to one heap cell.
// Move-only on purpose: event closures own payloads (BlockStream), and
// the scheduler/slab machinery only ever moves them.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace hcm {

template <typename Sig, std::size_t Inline = 64>
class InlineFn;

template <typename R, typename... Args, std::size_t Inline>
class InlineFn<R(Args...), Inline> {
 public:
  InlineFn() = default;
  InlineFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  InlineFn(InlineFn&& o) noexcept { move_from(o); }
  InlineFn& operator=(InlineFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  InlineFn& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFn& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  explicit operator bool() const { return vt_ != nullptr; }
  friend bool operator==(const InlineFn& f, std::nullptr_t) { return !f; }
  friend bool operator!=(const InlineFn& f, std::nullptr_t) {
    return static_cast<bool>(f);
  }

  R operator()(Args... args) {
    return vt_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct VTable {
    R (*invoke)(void*, Args&&...);
    // Move-constructs dst from src's storage and destroys src's.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename F>
  struct InlineOps {
    static R invoke(void* p, Args&&... args) {
      return (*static_cast<F*>(p))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) {
      ::new (dst) F(std::move(*static_cast<F*>(src)));
      static_cast<F*>(src)->~F();
    }
    static void destroy(void* p) { static_cast<F*>(p)->~F(); }
    static constexpr VTable vt{&invoke, &relocate, &destroy};
  };

  template <typename F>
  struct HeapOps {
    static R invoke(void* p, Args&&... args) {
      return (**static_cast<F**>(p))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) {
      std::memcpy(dst, src, sizeof(F*));
    }
    static void destroy(void* p) { delete *static_cast<F**>(p); }
    static constexpr VTable vt{&invoke, &relocate, &destroy};
  };

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= Inline && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &InlineOps<D>::vt;
    } else {
      D* cell = new D(std::forward<F>(f));
      std::memcpy(buf_, &cell, sizeof(cell));
      vt_ = &HeapOps<D>::vt;
    }
  }

  void move_from(InlineFn& o) noexcept {
    vt_ = o.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(buf_, o.buf_);
      o.vt_ = nullptr;
    }
  }

  void reset() {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[Inline];
};

// Copyable sibling of InlineFn — the async-callback currency of the
// RPC path (respond fns, call completions). These flow through APIs
// that occasionally copy (a handler parking its respond callback for
// later), so they cannot be move-only, but at wire rates the
// std::function they replace heap-allocated on every hop of the
// respond/completion chain. A SmallFn holds the callable inline up to
// `Inline` bytes and copies clone it in place; oversized captures
// degrade to one heap cell each, cloned on copy, exactly like
// std::function.
//
// A closure that captures another SmallFn of the same alias can never
// fit that alias's buffer, so a layer that only needs to run something
// before the callback it was handed (observe a latency, close a span)
// decorate()s it instead of wrapping it: the decoration is a trivially
// copyable callable stored in the buffer's spare room behind the bytes
// already in use, with the vtable and used length it displaced. Calls
// run the decorations outermost (last added) first, then the callable,
// the order nested wrappers ran in; a decoration that does not fit
// nests exactly as a wrapping closure would (one heap cell).
template <typename Sig, std::size_t Inline = 64>
class SmallFn;

template <typename R, typename... Args, std::size_t Inline>
class SmallFn<R(Args...), Inline> {
 public:
  SmallFn() = default;
  SmallFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  SmallFn(SmallFn&& o) noexcept { move_from(o); }
  SmallFn(const SmallFn& o) { copy_from(o); }
  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  SmallFn& operator=(const SmallFn& o) {
    if (this != &o) {
      reset();
      copy_from(o);
    }
    return *this;
  }
  SmallFn& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFn& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

  ~SmallFn() { reset(); }

  explicit operator bool() const { return vt_ != nullptr; }
  friend bool operator==(const SmallFn& f, std::nullptr_t) { return !f; }
  friend bool operator!=(const SmallFn& f, std::nullptr_t) {
    return static_cast<bool>(f);
  }

  // Invocable through const refs like std::function: the stored
  // callable itself is invoked non-const (mutable lambdas work).
  R operator()(Args... args) const {
    return vt_->invoke(buf_, used_, std::forward<Args>(args)...);
  }

  // Makes every later call run d(args...) — by const reference — before
  // what this fn ran so far. `d` is stored in place when the buffer has
  // room for it behind the callable and earlier decorations; otherwise
  // this fn becomes a wrapper holding d and its previous self.
  template <typename D>
  void decorate(D d) {
    static_assert(std::is_trivially_copyable_v<D>,
                  "a decoration is copied bytewise with its fn");
    static_assert(
        std::is_invocable_v<const D&,
                            const std::remove_reference_t<Args>&...>);
    using Rec = Decoration<D>;
    if constexpr (sizeof(Rec) <= Inline &&
                  alignof(Rec) <= alignof(std::max_align_t)) {
      const std::size_t at =
          (used_ + alignof(Rec) - 1) / alignof(Rec) * alignof(Rec);
      if (vt_ != nullptr && at + sizeof(Rec) <= Inline) {
        ::new (static_cast<void*>(buf_ + at)) Rec{d, vt_, used_};
        vt_ = &DecoratedOps<D>::vt;
        used_ = at + sizeof(Rec);
        return;
      }
    }
    *this = SmallFn([d, inner = std::move(*this)](Args... args) -> R {
      d(std::as_const(args)...);
      return inner(std::forward<Args>(args)...);
    });
  }

 private:
  // Each op gets the buffer's used length: a decoration finds its
  // record at the end of it.
  struct VTable {
    R (*invoke)(void*, std::size_t used, Args&&...);
    void (*relocate)(void* dst, void* src, std::size_t used);
    void (*clone)(void* dst, const void* src, std::size_t used);
    void (*destroy)(void*, std::size_t used);
  };

  template <typename F>
  struct InlineOps {
    static R invoke(void* p, std::size_t, Args&&... args) {
      return (*static_cast<F*>(p))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src, std::size_t) {
      ::new (dst) F(std::move(*static_cast<F*>(src)));
      static_cast<F*>(src)->~F();
    }
    static void clone(void* dst, const void* src, std::size_t) {
      ::new (dst) F(*static_cast<const F*>(src));
    }
    static void destroy(void* p, std::size_t) { static_cast<F*>(p)->~F(); }
    static constexpr VTable vt{&invoke, &relocate, &clone, &destroy};
  };

  template <typename F>
  struct HeapOps {
    static R invoke(void* p, std::size_t, Args&&... args) {
      return (**static_cast<F**>(p))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src, std::size_t) {
      std::memcpy(dst, src, sizeof(F*));
    }
    static void clone(void* dst, const void* src, std::size_t) {
      F* cell = new F(**static_cast<F* const*>(src));
      std::memcpy(dst, &cell, sizeof(cell));
    }
    static void destroy(void* p, std::size_t) { delete *static_cast<F**>(p); }
    static constexpr VTable vt{&invoke, &relocate, &clone, &destroy};
  };

  // One decoration: the callable and the state it displaced. It ends
  // exactly at the used length, so its offset needs no storing.
  template <typename D>
  struct Decoration {
    D d;
    const VTable* prev;
    std::size_t prev_used;
  };

  template <typename D>
  struct DecoratedOps {
    using Rec = Decoration<D>;
    static const Rec& record(const void* p, std::size_t used) {
      return *std::launder(reinterpret_cast<const Rec*>(
          static_cast<const unsigned char*>(p) + used - sizeof(Rec)));
    }
    static void copy_record(void* dst, const void* src, std::size_t used) {
      std::memcpy(static_cast<unsigned char*>(dst) + used - sizeof(Rec),
                  static_cast<const unsigned char*>(src) + used - sizeof(Rec),
                  sizeof(Rec));
    }
    static R invoke(void* p, std::size_t used, Args&&... args) {
      const Rec& rec = record(p, used);
      rec.d(std::as_const(args)...);
      return rec.prev->invoke(p, rec.prev_used, std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src, std::size_t used) {
      const Rec& rec = record(src, used);
      rec.prev->relocate(dst, src, rec.prev_used);
      copy_record(dst, src, used);
    }
    static void clone(void* dst, const void* src, std::size_t used) {
      const Rec& rec = record(src, used);
      rec.prev->clone(dst, src, rec.prev_used);
      copy_record(dst, src, used);
    }
    static void destroy(void* p, std::size_t used) {
      const Rec& rec = record(p, used);
      rec.prev->destroy(p, rec.prev_used);
    }
    static constexpr VTable vt{&invoke, &relocate, &clone, &destroy};
  };

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= Inline &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &InlineOps<D>::vt;
      used_ = sizeof(D);
    } else {
      D* cell = new D(std::forward<F>(f));
      std::memcpy(buf_, &cell, sizeof(cell));
      vt_ = &HeapOps<D>::vt;
      used_ = sizeof(cell);
    }
  }

  void move_from(SmallFn& o) noexcept {
    vt_ = o.vt_;
    used_ = o.used_;
    if (vt_ != nullptr) {
      vt_->relocate(buf_, o.buf_, used_);
      o.vt_ = nullptr;
      o.used_ = 0;
    }
  }

  void copy_from(const SmallFn& o) {
    if (o.vt_ != nullptr) {
      o.vt_->clone(buf_, o.buf_, o.used_);
      vt_ = o.vt_;
      used_ = o.used_;
    }
  }

  void reset() {
    if (vt_ != nullptr) {
      vt_->destroy(buf_, used_);
      vt_ = nullptr;
      used_ = 0;
    }
  }

  const VTable* vt_ = nullptr;
  // Bytes of buf_ in use (callable or cell pointer, then decorations);
  // sits in what would be padding before the aligned buffer.
  std::size_t used_ = 0;
  alignas(std::max_align_t) mutable unsigned char buf_[Inline];
};

}  // namespace hcm
