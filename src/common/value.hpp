// Value: the middleware-neutral dynamic value model. Every middleware in
// the repo (Jini-like, HAVi-like, X10, SOAP, mail) marshals call
// arguments and results to/from this type; the PCMs convert between the
// native encodings without losing information.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace hcm {

enum class ValueType {
  kNull = 0,
  kBool,
  kInt,     // int64
  kDouble,
  kString,
  kBytes,
  kList,
  kMap,
};

const char* to_string(ValueType t);

class Value;
using ValueList = std::vector<Value>;

// String-keyed map of Values, kept as one sorted vector of (key, value)
// pairs: one allocation per map, not one per key. Keys order as
// std::string compares them, so iteration (and every encoder's output)
// is the order a std::map<std::string, Value> gives. Lookups take
// std::string_view.
//
// Unlike std::map, inserting (emplace, operator[] on a new key) may move
// every entry: it invalidates references and iterators into the map.
// Decoders build a map with from_unsorted (or normalize), not key by
// key, so a hostile key order costs one sort instead of a quadratic run
// of inserts.
class ValueMap {
 public:
  using value_type = std::pair<std::string, Value>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  // Which entry survives when from_unsorted sees a key more than once.
  enum class Duplicates { kKeepFirst, kKeepLast };

  ValueMap() = default;
  // Keeps the first entry of a repeated key, as std::map's does.
  ValueMap(std::initializer_list<value_type> items);

  // Adopts `items` in any order, sorts them once (a no-op when the keys
  // already ascend strictly) and drops the repeats `keep` does not name.
  [[nodiscard]] static ValueMap from_unsorted(std::vector<value_type> items,
                                              Duplicates keep);
  // In-place form for decoders that reuse a map's storage: write the
  // entries in any order into unsorted_entries() (keys and values
  // assign into the capacity they kept), then normalize() sorts and
  // drops repeats as from_unsorted does. Until then the map's lookups
  // are unspecified.
  [[nodiscard]] std::vector<value_type>& unsorted_entries() { return items_; }
  void normalize(Duplicates keep);

  [[nodiscard]] iterator begin() { return items_.begin(); }
  [[nodiscard]] iterator end() { return items_.end(); }
  [[nodiscard]] const_iterator begin() const { return items_.begin(); }
  [[nodiscard]] const_iterator end() const { return items_.end(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  void clear();
  void reserve(std::size_t n);

  [[nodiscard]] iterator find(std::string_view key);
  [[nodiscard]] const_iterator find(std::string_view key) const;
  [[nodiscard]] bool contains(std::string_view key) const;
  [[nodiscard]] std::size_t count(std::string_view key) const {
    return contains(key) ? 1 : 0;
  }
  // The value at `key`, which must be present.
  [[nodiscard]] Value& at(std::string_view key);
  [[nodiscard]] const Value& at(std::string_view key) const;

  // Inserts (key, Value(args...)) unless `key` is present; the bool
  // says whether it inserted.
  template <typename K, typename... Args>
  std::pair<iterator, bool> emplace(K&& key, Args&&... args);
  // The value at `key`, inserting a null one first if it is missing.
  template <typename K>
  Value& operator[](K&& key);

  std::size_t erase(std::string_view key);

  friend bool operator==(const ValueMap& a, const ValueMap& b);

 private:
  // Where `key` is, or would be inserted, in `items` (const or not).
  template <typename Items>
  [[nodiscard]] static auto lower_bound(Items& items, std::string_view key);

  std::vector<value_type> items_;
};

// A JSON-like dynamic value. Small enough to copy; lists/maps share
// nothing (value semantics throughout, per the Core Guidelines default).
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  Value(std::nullptr_t) : v_(std::monostate{}) {}           // NOLINT
  Value(bool b) : v_(b) {}                                  // NOLINT
  Value(std::int64_t i) : v_(i) {}                          // NOLINT
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}        // NOLINT
  Value(double d) : v_(d) {}                                // NOLINT
  Value(std::string s) : v_(std::move(s)) {}                // NOLINT
  Value(const char* s) : v_(std::string(s)) {}              // NOLINT
  Value(Bytes b) : v_(std::move(b)) {}                      // NOLINT
  Value(ValueList l) : v_(std::move(l)) {}                  // NOLINT
  Value(ValueMap m) : v_(std::move(m)) {}                   // NOLINT

  [[nodiscard]] ValueType type() const;

  [[nodiscard]] bool is_null() const { return type() == ValueType::kNull; }
  [[nodiscard]] bool is_bool() const { return type() == ValueType::kBool; }
  [[nodiscard]] bool is_int() const { return type() == ValueType::kInt; }
  [[nodiscard]] bool is_double() const { return type() == ValueType::kDouble; }
  [[nodiscard]] bool is_string() const { return type() == ValueType::kString; }
  [[nodiscard]] bool is_bytes() const { return type() == ValueType::kBytes; }
  [[nodiscard]] bool is_list() const { return type() == ValueType::kList; }
  [[nodiscard]] bool is_map() const { return type() == ValueType::kMap; }

  // Accessors assert on type mismatch; use type() / is_*() to check first.
  [[nodiscard]] bool as_bool() const { return std::get<bool>(v_); }
  [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(v_); }
  [[nodiscard]] double as_double() const { return std::get<double>(v_); }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(v_);
  }
  [[nodiscard]] const Bytes& as_bytes() const { return std::get<Bytes>(v_); }
  [[nodiscard]] const ValueList& as_list() const {
    return std::get<ValueList>(v_);
  }
  [[nodiscard]] const ValueMap& as_map() const { return std::get<ValueMap>(v_); }
  [[nodiscard]] ValueList& as_list() { return std::get<ValueList>(v_); }
  // The T (std::string, Bytes, ValueList or ValueMap) this value holds,
  // after making it an empty T if it held another type: what is then
  // assigned or decoded into it reuses a held T's storage (recycled
  // wire items, decoders).
  template <typename T>
  [[nodiscard]] T& slot() {
    if (!std::holds_alternative<T>(v_)) v_ = T();
    return std::get<T>(v_);
  }
  [[nodiscard]] ValueMap& as_map() { return std::get<ValueMap>(v_); }

  // Lenient numeric view: int or double -> double.
  [[nodiscard]] Result<double> to_number() const;
  // Lenient int view: int, or double with integral value.
  [[nodiscard]] Result<std::int64_t> to_int() const;

  // Map convenience: value at key, or null Value if missing.
  [[nodiscard]] const Value& at(std::string_view key) const;

  // Human-readable single-line rendering (diagnostics / tests).
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Value& a, const Value& b) { return a.v_ == b.v_; }

 private:
  std::variant<std::monostate, bool, std::int64_t, double, std::string, Bytes,
               ValueList, ValueMap>
      v_;
};

// Largest string or byte string whose storage a decoded tree kept for
// the next decode holds on to (a pooled SOAP envelope, a binary
// server's argument list). trim_for_reuse frees a larger one, such as a
// mail body, so it does not stay resident.
inline constexpr std::size_t kMaxRetainedString = 1024;
// Frees the strings and byte strings in `v`, at any depth, whose storage
// exceeds kMaxRetainedString.
void trim_for_reuse(Value& v);

// ValueMap's members that touch its entries, now that Value is complete.

inline void ValueMap::clear() { items_.clear(); }

inline void ValueMap::reserve(std::size_t n) { items_.reserve(n); }

inline bool operator==(const ValueMap& a, const ValueMap& b) {
  return a.items_ == b.items_;
}

template <typename Items>
auto ValueMap::lower_bound(Items& items, std::string_view key) {
  return std::lower_bound(
      items.begin(), items.end(), key,
      [](const value_type& e, std::string_view k) { return e.first < k; });
}

inline ValueMap::iterator ValueMap::find(std::string_view key) {
  auto it = lower_bound(items_, key);
  return it != end() && it->first == key ? it : end();
}

inline ValueMap::const_iterator ValueMap::find(std::string_view key) const {
  auto it = lower_bound(items_, key);
  return it != end() && it->first == key ? it : end();
}

inline bool ValueMap::contains(std::string_view key) const {
  return find(key) != end();
}

template <typename K, typename... Args>
std::pair<ValueMap::iterator, bool> ValueMap::emplace(K&& key,
                                                      Args&&... args) {
  const std::string_view k(key);
  auto it = lower_bound(items_, k);
  if (it != end() && it->first == k) return {it, false};
  it = items_.emplace(it, std::piecewise_construct,
                      std::forward_as_tuple(std::forward<K>(key)),
                      std::forward_as_tuple(std::forward<Args>(args)...));
  return {it, true};
}

template <typename K>
Value& ValueMap::operator[](K&& key) {
  return emplace(std::forward<K>(key)).first->second;
}

}  // namespace hcm
