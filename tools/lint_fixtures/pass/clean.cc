// analyze-fixture-as: src/storage/clean.cc
// Fixture: idiomatic avdb code none of the rules should flag — smart-
// pointer-owned `new` (private-ctor factory idiom), downward includes,
// Status-returning failure handling, rule names quoted in comments and
// strings (steady_clock, AVDB_CHECK, new) that must not trip anything.
#include <memory>
#include <string>

#include "base/status.h"
#include "codec/varint.h"

namespace avdb {

class Widget {
 public:
  static std::unique_ptr<Widget> Make() {
    return std::unique_ptr<Widget>(new Widget());
  }

  // A renewable lease; "renew" and "new lines" must not look like `new`.
  Status Renew(const std::string& reason) {
    if (reason.empty()) return Status::InvalidArgument("empty reason");
    const char* label = "uses steady_clock only in prose";
    (void)label;
    return Status();
  }

 private:
  Widget() = default;
};

/* Block comment mentioning malloc( and sleep_for — still prose. */

}  // namespace avdb
