// Binary delta codec for pack compaction: a target document is encoded
// as copy(offset, length)-from-base and insert(literal) ops against the
// prior revision of the same service (the git packfile shape). WSDL
// revisions of one service are near-identical, so the encoded delta is
// typically a few dozen bytes for multi-KB documents.
//
// Encoding: varint(base_size) varint(target_size), then ops:
//   0x00 varint(len) <len literal bytes>       insert
//   0x01 varint(offset) varint(len)            copy from base
// Application verifies base/target sizes, so a delta applied to the
// wrong base fails loudly instead of producing silent garbage. The
// declared target size caps the output; it is never reserved up front.
#pragma once

#include <string>
#include <string_view>

#include "common/status.hpp"

namespace hcm::store {

[[nodiscard]] std::string delta_encode(std::string_view base,
                                       std::string_view target);

[[nodiscard]] Result<std::string> delta_apply(std::string_view base,
                                              std::string_view delta);

}  // namespace hcm::store
