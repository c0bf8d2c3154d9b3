//===- Resilience.cpp - Error taxonomy --------------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "resilience/Resilience.h"

using namespace mvec;

const char *mvec::errorClassName(ErrorClass Class) {
  switch (Class) {
  case ErrorClass::None:
    return "none";
  case ErrorClass::Input:
    return "input";
  case ErrorClass::Resource:
    return "resource";
  case ErrorClass::Deadline:
    return "deadline";
  case ErrorClass::Internal:
    return "internal";
  }
  return "unknown";
}

bool mvec::parseErrorClass(const std::string &Name, ErrorClass &Class) {
  for (ErrorClass C : {ErrorClass::None, ErrorClass::Input,
                       ErrorClass::Resource, ErrorClass::Deadline,
                       ErrorClass::Internal}) {
    if (Name == errorClassName(C)) {
      Class = C;
      return true;
    }
  }
  return false;
}
