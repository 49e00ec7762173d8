#include "util/parallel.h"

namespace resmodel::util {

int resolve_threads(int threads) noexcept {
  if (threads > 0) return threads;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 1;
}

}  // namespace resmodel::util
