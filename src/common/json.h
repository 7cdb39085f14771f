// JSON string escaping shared by every JSON writer in the library: the
// wire protocol, the statistics and trace exporters, and the lint
// diagnostics renderer.

#ifndef CAESAR_COMMON_JSON_H_
#define CAESAR_COMMON_JSON_H_

#include <string>
#include <string_view>

namespace caesar {

// Escapes `s` as an RFC 8259 JSON string literal including the surrounding
// quotes. Bytes >= 0x80 pass through unchanged (UTF-8 stays UTF-8).
std::string JsonQuote(std::string_view s);

}  // namespace caesar

#endif  // CAESAR_COMMON_JSON_H_
