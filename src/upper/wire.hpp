// Field codec of the service messages that the layers on msg::Communicator
// exchange (getput windows, DSM pages): fixed-size values copied in host
// byte order, appended to a payload and consumed from its front.
#pragma once

#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

namespace vibe::upper::wire {

template <typename T>
void append(std::vector<std::byte>& out, const T& value) {
  const auto* p = reinterpret_cast<const std::byte*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
T consume(std::span<const std::byte>& in) {
  T value;
  std::memcpy(&value, in.data(), sizeof(T));
  in = in.subspan(sizeof(T));
  return value;
}

}  // namespace vibe::upper::wire
