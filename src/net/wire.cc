#include "net/wire.h"

#include <array>

namespace radd {

const std::string& MessageTypeName(MessageType type) {
  // Callers build stat keys from the name, so it is handed out as a
  // std::string copied once from the type table.
  static const auto kNames = [] {
    std::array<std::string, kNumMessageTypes> names;
    for (size_t i = 0; i < kNumMessageTypes; ++i) {
      names[i] = kMessageTypes[i].name;
    }
    return names;
  }();
  return kNames[static_cast<size_t>(type)];
}

MessageType MessageTypeFromName(const std::string& name) {
  for (size_t i = 1; i < kNumMessageTypes; ++i) {
    if (kMessageTypes[i].name == name) return static_cast<MessageType>(i);
  }
  return MessageType::kNone;
}

}  // namespace radd
