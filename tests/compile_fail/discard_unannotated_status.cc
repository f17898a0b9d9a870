// Compile-FAIL fixture: MightFail() carries no TASQ_NODISCARD of its own,
// yet discarding its Status must still be rejected, because Status is
// [[nodiscard]] at class level (common/status.h). Built with
// -Werror=unused-result by tests/compile_fail/CMakeLists.txt. This is why
// no analyzer rule has to check that Status-returning functions are
// annotated.
#include "common/status.h"

tasq::Status MightFail() { return tasq::Status::InvalidArgument("boom"); }

int main() {
  MightFail();  // Discarded Status: this line must not compile.
  return 0;
}
