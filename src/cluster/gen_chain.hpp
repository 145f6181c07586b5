// Kept as an include path for perfbench/layers.cpp: generation-chain search
// is MemberSet's kChain layout now (cluster/member_set.hpp).
#pragma once

#include "cluster/member_set.hpp"
