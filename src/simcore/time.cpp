#include "simcore/time.hpp"

#include <iomanip>
#include <sstream>

namespace tls::sim {

std::string format_time(Time t) {
  std::ostringstream os;
  os << std::setprecision(4);
  Time a = t < Time{0} ? -t : t;
  if (a >= kSecond) {
    os << to_seconds(t) << "s";
  } else if (a >= kMillisecond) {
    os << to_millis(t) << "ms";
  } else if (a >= kMicrosecond) {
    os << to_micros(t) << "us";
  } else {
    os << t << "ns";
  }
  return os.str();
}

}  // namespace tls::sim
