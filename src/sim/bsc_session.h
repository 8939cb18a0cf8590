#pragma once
// sim::BscSession, spinal codes over the binary symmetric channel: the
// one spinal session template over the BSC metric (sim/spinal_session.h).

#include "sim/spinal_session.h"
