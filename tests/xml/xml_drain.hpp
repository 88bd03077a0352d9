// Well-formedness check for tests: reads a whole document with
// PullParser, whose tokenizer rejects everything a full decode would.
#pragma once

#include <string_view>

#include "xml/xml.hpp"

namespace hcm::xml::xmltest {

[[nodiscard]] inline Status drain(std::string_view doc) {
  PullParser p(doc);
  return p.for_each_child([&p] { return p.skip_element(); });
}

}  // namespace hcm::xml::xmltest
