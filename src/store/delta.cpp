#include "store/delta.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "store/codec.hpp"

namespace hcm::store {

namespace {

// Block granularity for the base index. Matches shorter than this are
// not worth a copy op (op overhead is ~3-5 bytes).
constexpr std::size_t kBlock = 16;

std::uint64_t block_key(std::string_view s, std::size_t pos) {
  return chain_hash(kChainGenesis, s.substr(pos, kBlock));
}

void emit_insert(std::string& out, std::string_view lit) {
  if (lit.empty()) return;
  out.push_back(0x00);
  put_string(out, lit);
}

void emit_copy(std::string& out, std::size_t off, std::size_t len) {
  out.push_back(0x01);
  put_varint(out, off);
  put_varint(out, len);
}

}  // namespace

std::string delta_encode(std::string_view base, std::string_view target) {
  std::string out;
  put_varint(out, base.size());
  put_varint(out, target.size());

  // Index non-overlapping base blocks by content hash. std::map keeps
  // candidate selection deterministic across runs.
  std::map<std::uint64_t, std::vector<std::size_t>> index;
  for (std::size_t p = 0; p + kBlock <= base.size(); p += kBlock) {
    index[block_key(base, p)].push_back(p);
  }

  std::size_t lit_begin = 0;  // start of the pending literal run
  std::size_t i = 0;
  while (i + kBlock <= target.size()) {
    auto it = index.find(block_key(target, i));
    // Best match covers target[best_ts, best_ts + best_len) from
    // base[best_bo, best_bo + best_len), with best_ts <= i (backwards
    // extension may eat into the pending literal).
    std::size_t best_len = 0;
    std::size_t best_bo = 0;
    std::size_t best_ts = 0;
    if (it != index.end()) {
      for (std::size_t cand : it->second) {
        // Confirm the block bytewise (the hash can collide), then
        // extend greedily forwards and backwards.
        std::size_t fwd = 0;
        while (i + fwd < target.size() && cand + fwd < base.size() &&
               target[i + fwd] == base[cand + fwd]) {
          ++fwd;
        }
        if (fwd < kBlock) continue;
        std::size_t back = 0;
        while (back < i - lit_begin && back < cand &&
               target[i - back - 1] == base[cand - back - 1]) {
          ++back;
        }
        if (fwd + back > best_len) {
          best_len = fwd + back;
          best_bo = cand - back;
          best_ts = i - back;
        }
      }
    }
    if (best_len >= kBlock) {
      emit_insert(out, target.substr(lit_begin, best_ts - lit_begin));
      emit_copy(out, best_bo, best_len);
      i = best_ts + best_len;
      lit_begin = i;
    } else {
      ++i;
    }
  }
  emit_insert(out, target.substr(lit_begin));
  return out;
}

Result<std::string> delta_apply(std::string_view base,
                                std::string_view delta) {
  BufReader r(delta);
  std::uint64_t base_size = 0;
  std::uint64_t target = 0;
  if (!get_varint(r, base_size) || !get_varint(r, target)) {
    return protocol_error("delta: truncated header");
  }
  if (base_size != base.size()) {
    return protocol_error("delta: base size mismatch (delta built against " +
                          std::to_string(base_size) + " bytes, applied to " +
                          std::to_string(base.size()) + ")");
  }
  // The declared size is a claim, not a budget: reserve no more than
  // the inputs hold, and refuse any op that outgrows the claim.
  std::string out;
  out.reserve(std::min<std::uint64_t>(target, base.size() + delta.size()));
  while (!r.at_end()) {
    const std::uint8_t op = r.u8().value_or(0xff);
    std::string_view piece;
    std::uint64_t off = 0;
    std::uint64_t len = 0;
    if (op == 0x00) {
      if (!get_string(r, piece)) return protocol_error("delta: truncated op");
    } else if (op == 0x01) {
      if (!get_varint(r, off) || !get_varint(r, len)) {
        return protocol_error("delta: truncated op");
      }
      if (off > base.size() || len > base.size() - off) {
        return protocol_error("delta: copy op out of base range");
      }
      piece = base.substr(off, len);
    } else {
      return protocol_error("delta: unknown op " + std::to_string(op));
    }
    if (piece.size() > target - out.size()) {
      return protocol_error("delta: ops overrun the declared size " +
                            std::to_string(target));
    }
    out.append(piece);
  }
  if (out.size() != target) {
    return protocol_error("delta: applied size " + std::to_string(out.size()) +
                          " != declared " + std::to_string(target));
  }
  return out;
}

}  // namespace hcm::store
