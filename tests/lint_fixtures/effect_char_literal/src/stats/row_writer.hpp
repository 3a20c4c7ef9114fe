// Fixture: a marked hot-path root whose helper writes the char literal
// '"' just before an allocation.  A scanner that reads that literal as
// the start of a string blanks everything up to the next double quote,
// the allocation included; the hotpath_effects gate must report the
// `new` at its true line.
#pragma once

#include <string>

#include "common/effect_annotations.hpp"

namespace hydranet::stats {

class RowWriter {
 public:
  void write_row(const char* field) HN_NONALLOCATING { quote(field); }

 private:
  void quote(const char* field) {
    out_ += '"';
    scratch_ = new char[64];  // hidden allocation on the hot path
    out_ += field;
    out_ += "\"";
  }

  std::string out_;
  char* scratch_ = nullptr;
};

}  // namespace hydranet::stats
