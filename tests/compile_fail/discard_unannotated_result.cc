// Compile-FAIL fixture: the Result<T> twin of
// discard_unannotated_status.cc. Result<T> is [[nodiscard]] at class level
// (common/status.h), so discarding the value of an unannotated
// Result<int>-returning function must be rejected under
// -Werror=unused-result.
#include "common/status.h"

tasq::Result<int> MightFail() {
  return tasq::Status::InvalidArgument("boom");
}

int main() {
  MightFail();  // Discarded Result<int>: this line must not compile.
  return 0;
}
