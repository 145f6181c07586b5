// Kept as an include path for perfbench/layers.cpp: sharded search is
// MemberSet's kShards layout now (cluster/member_set.hpp).
#pragma once

#include "cluster/member_set.hpp"
