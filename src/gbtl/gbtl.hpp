#pragma once

/// @file gbtl.hpp
/// Umbrella header: the full public GraphBLAS frontend.
///
///   #include "gbtl/gbtl.hpp"
///   grb::Matrix<double, grb::GpuSim> A(n, n);
///   grb::vxm(w, grb::complement(visited), grb::NoAccumulate{},
///            grb::LogicalSemiring<bool>{}, frontier, A, grb::Replace);

#include "gbtl/algebra.hpp"
#include "gbtl/execution_policy.hpp"
#include "gbtl/matrix.hpp"
#include "gbtl/operations.hpp"
#include "gbtl/types.hpp"
#include "gbtl/utility.hpp"
#include "gbtl/vector.hpp"
#include "gbtl/views.hpp"
