// Builders for the reference 2.5D systems evaluated in the DeFT paper and
// small systems used by tests and examples.
//
// A hand-written SystemSpec may give each chiplet 1 to kMaxVlsPerChiplet
// (8) vertical links; the Topology constructor rejects more, because the
// per-chiplet fault masks and MTR's combination bits hold 8 VLs.
#pragma once

#include "topology/topology.hpp"

namespace deft {

/// Generic chiplet-grid system: `cols` x `rows` chiplets, each
/// `chiplet_width` x `chiplet_height`, tiled without gaps on an interposer
/// of exactly matching extent. Each chiplet gets four VLs in the paper's
/// border placement (one per edge, pinwheel-symmetric), and one DRAM
/// endpoint sits at each interposer corner.
SystemSpec make_grid_spec(int cols, int rows, int chiplet_width,
                          int chiplet_height);

/// The paper's reference systems: 4 chiplets (2x2 grid of 4x4 chiplets on
/// an 8x8 interposer, 16 VLs / 32 unidirectional VL channels) or 6 chiplets
/// (3x2 grid, 12x8 interposer, 24 VLs / 48 channels).
SystemSpec make_reference_spec(int num_chiplets);

/// A small heterogeneous system (one 3x3 and one 2x2 chiplet with two VLs
/// each) exercising unequal chiplet sizes and VL counts; used by tests and
/// the custom-topology example.
SystemSpec make_two_chiplet_spec();

}  // namespace deft
