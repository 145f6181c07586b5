// Kept as an include path and names for perfbench/layers.cpp: a mapped
// index is a DbIndex opened with the default options (index/db_index.hpp).
#pragma once

#include "index/db_index.hpp"

namespace mublastp {

using MappedDbIndex = DbIndex;
using MappedDbIndexOptions = DbIndexOpenOptions;

}  // namespace mublastp
