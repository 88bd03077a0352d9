#include "common/value.hpp"

#include <cmath>
#include <numeric>

#include "common/check.hpp"

namespace hcm {

namespace {
// Largest map from_unsorted sorts by insertion (quadratic, but in
// place) rather than through a sorted index (two allocations).
constexpr std::size_t kInsertionSortMax = 16;
}  // namespace

ValueMap::ValueMap(std::initializer_list<value_type> items)
    : ValueMap(from_unsorted(std::vector<value_type>(items),
                             Duplicates::kKeepFirst)) {}

ValueMap ValueMap::from_unsorted(std::vector<value_type> items,
                                 Duplicates keep) {
  ValueMap out;
  out.items_ = std::move(items);
  auto& v = out.items_;
  const auto key_less = [](const value_type& a, const value_type& b) {
    return a.first < b.first;
  };
  // Every encoder writes keys in ascending order, so this is the path
  // a well-formed peer takes: one comparison per key.
  if (std::adjacent_find(v.begin(), v.end(), [&](const auto& a, const auto& b) {
        return !key_less(a, b);
      }) == v.end()) {
    return out;
  }
  // Stable, so a run of equal keys keeps its input order: the first
  // entry of each run is the first one seen, the last the last one.
  // A small map (a braced initializer written out of key order) is
  // insertion-sorted in place. A large one sorts entry indices, with
  // the index breaking ties, and then moves each entry once.
  if (v.size() <= kInsertionSortMax) {
    for (auto i = v.begin(); i != v.end(); ++i) {
      std::rotate(std::upper_bound(v.begin(), i, *i, key_less), i, i + 1);
    }
  } else {
    std::vector<std::uint32_t> order(v.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&v](std::uint32_t a, std::uint32_t b) {
      const int c = v[a].first.compare(v[b].first);
      return c < 0 || (c == 0 && a < b);
    });
    std::vector<value_type> sorted;
    sorted.reserve(v.size());
    for (std::uint32_t i : order) sorted.push_back(std::move(v[i]));
    v = std::move(sorted);
  }
  auto write = v.begin();
  for (auto run = v.begin(); run != v.end();) {
    auto next = run + 1;
    while (next != v.end() && next->first == run->first) ++next;
    auto& survivor = keep == Duplicates::kKeepFirst ? *run : *(next - 1);
    if (&*write != &survivor) *write = std::move(survivor);
    ++write;
    run = next;
  }
  v.erase(write, v.end());
  return out;
}

Value& ValueMap::at(std::string_view key) {
  auto it = find(key);
  HCM_CHECK_MSG(it != end(), std::string(key));
  return it->second;
}

const Value& ValueMap::at(std::string_view key) const {
  auto it = find(key);
  HCM_CHECK_MSG(it != end(), std::string(key));
  return it->second;
}

std::size_t ValueMap::erase(std::string_view key) {
  auto it = find(key);
  if (it == end()) return 0;
  items_.erase(it);
  return 1;
}

const char* to_string(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "null";
    case ValueType::kBool: return "bool";
    case ValueType::kInt: return "int";
    case ValueType::kDouble: return "double";
    case ValueType::kString: return "string";
    case ValueType::kBytes: return "bytes";
    case ValueType::kList: return "list";
    case ValueType::kMap: return "map";
  }
  return "?";
}

ValueType Value::type() const {
  return static_cast<ValueType>(v_.index());
}

Result<double> Value::to_number() const {
  if (is_int()) return static_cast<double>(as_int());
  if (is_double()) return as_double();
  return invalid_argument("value is not numeric");
}

Result<std::int64_t> Value::to_int() const {
  if (is_int()) return as_int();
  if (is_double()) {
    double d = as_double();
    if (d == std::floor(d)) return static_cast<std::int64_t>(d);
  }
  return invalid_argument("value is not an integer");
}

const Value& Value::at(std::string_view key) const {
  static const Value kNull;
  if (!is_map()) return kNull;
  auto it = as_map().find(key);
  return it == as_map().end() ? kNull : it->second;
}

namespace {

void render(const Value& v, std::string& out) {
  switch (v.type()) {
    case ValueType::kNull:
      out += "null";
      break;
    case ValueType::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case ValueType::kInt:
      out += std::to_string(v.as_int());
      break;
    case ValueType::kDouble:
      out += std::to_string(v.as_double());
      break;
    case ValueType::kString:
      out += '"';
      out += v.as_string();
      out += '"';
      break;
    case ValueType::kBytes:
      out += "bytes[";
      out += std::to_string(v.as_bytes().size());
      out += ']';
      break;
    case ValueType::kList: {
      out += '[';
      bool first = true;
      for (const auto& e : v.as_list()) {
        if (!first) out += ", ";
        first = false;
        render(e, out);
      }
      out += ']';
      break;
    }
    case ValueType::kMap: {
      out += '{';
      bool first = true;
      for (const auto& [k, e] : v.as_map()) {
        if (!first) out += ", ";
        first = false;
        out += k;
        out += ": ";
        render(e, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string Value::to_string() const {
  std::string out;
  render(*this, out);
  return out;
}

}  // namespace hcm
