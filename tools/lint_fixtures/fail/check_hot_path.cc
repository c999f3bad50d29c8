// analyze-fixture-as: src/storage/bad_check.cc
// analyze-expect: check-in-hot-path
// Fixture: aborting on data-dependent state in a storage hot path instead
// of returning Status.
#include "base/logging.h"

namespace avdb {

void VerifyPage(bool checksum_ok) {
  AVDB_CHECK(checksum_ok) << "corrupt page";  // should be Status::DataLoss
}

}  // namespace avdb
