// The typed-error code a call throws, for tests that assert which VbsErrc
// a rejection carries.
#pragma once

#include "util/error.h"

namespace vbs {

/// The code of the VbsError `f` throws; kNone when it throws none.
template <class F>
VbsErrc errc_of(F&& f) {
  try {
    f();
  } catch (const VbsError& e) {
    return e.code();
  }
  return VbsErrc::kNone;
}

}  // namespace vbs
