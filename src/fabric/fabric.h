// The reconfigurable fabric: a width x height grid of macros with their
// single-length track wires abutted across tile boundaries.
//
// Two layers of description, for two kinds of user:
//
//   * FabricLayout — the grid and its configuration-bit layout: where each
//     macro's frame sits in the full-fabric raw configuration. That is all
//     the run-time side needs: the reconfiguration controller, the service
//     built on it, devirtualize_image and write_entry_config. It costs a
//     few words.
//   * Fabric — the layout plus the routing-resource graph. Abutted wire
//     segments (east wire of one tile / west wire of the next, and
//     north/south likewise) are the same electrical conductor, so they are
//     merged into a single *global node* via union-find; global nodes are
//     connected by programmable switches. The flow needs it: the global
//     router, the bit-stream generator, the encoder and the connectivity
//     verifier. On a 32x32 grid at W = 20 that is about 330k nodes and
//     960k switches, so code that only writes configuration bits should
//     hold a FabricLayout and build a Fabric only where it checks routing.
//
// Graph layout (Fabric::bytes() counts it): CSR with 32-bit offsets and
// one 8-byte Edge per switch direction. An edge holds its neighbour and a
// switch id, macro * nroute_bits + routing bit; edge_switch() splits it,
// and the routing bit is the macro model's switch_points()[p].bit_offset +
// pair. Each node lists its edges in switch-id order, so an edge index
// (NetRoute::fabric_edge, route.art) names a fixed switch;
// Fabric.GraphIsPinned holds that order. The constructor throws VbsError
// kResourceLimit, before it allocates the graph, when the directed edges
// would overflow int32 (switch ids, half as many, then fit uint32).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/macro_model.h"
#include "util/geometry.h"

namespace vbs {

class FabricLayout {
 public:
  /// Throws std::invalid_argument unless both dimensions are positive.
  FabricLayout(const ArchSpec& spec, int width, int height);

  const ArchSpec& spec() const { return spec_; }
  int width() const { return width_; }
  int height() const { return height_; }
  int num_macros() const { return width_ * height_; }
  int macro_index(int mx, int my) const { return my * width_ + mx; }
  Point macro_pos(int m) const { return {m % width_, m / width_}; }

  /// Raw frame: macros in row-major order, nraw_bits() bits each, logic
  /// data first then routing bits in MacroModel canonical order. The
  /// frames of one row of macros are therefore contiguous.
  std::size_t config_bits_total() const {
    return static_cast<std::size_t>(num_macros()) * spec_.nraw_bits();
  }
  std::size_t macro_config_offset(int m) const {
    return static_cast<std::size_t>(m) * spec_.nraw_bits();
  }

 private:
  ArchSpec spec_;
  int width_;
  int height_;
};

class Fabric : public FabricLayout {
 public:
  Fabric(const ArchSpec& spec, int width, int height);

  const MacroModel& macro() const { return macro_; }

  // --- global node space --------------------------------------------------
  int num_nodes() const { return num_nodes_; }
  /// Global node carrying the macro-local node `local` of tile (mx,my).
  int global_node(int mx, int my, int local) const {
    return node_of_raw_[static_cast<std::size_t>(macro_index(mx, my)) *
                            macro_.num_nodes() +
                        local];
  }
  /// Global node of a macro boundary/pin port.
  int port_global(int mx, int my, int port) const {
    return global_node(mx, my, macro_.port_node(port));
  }
  /// Representative tile of a node (for distance heuristics).
  Point node_pos(int g) const { return {pos_x_[g], pos_y_[g]}; }
  /// Macro-local id of a node at its node_pos tile (arch/lookahead.h's
  /// `local`). A boundary port's node carries its port there:
  /// macro().node_port(node_local(g)) >= 0.
  int node_local(int g) const { return local_[g]; }

  // --- switches (graph edges) ----------------------------------------------
  struct Edge {
    std::int32_t to;   ///< neighbouring global node
    std::uint32_t sw;  ///< switch id: macro * nroute_bits + routing bit
  };
  std::span<const Edge> edges(int g) const {
    return {edge_data_.data() + edge_begin_[g],
            edge_data_.data() + edge_begin_[g + 1]};
  }
  std::size_t num_edges() const { return edge_data_.size() / 2; }
  /// Absolute index of the first edge of node g in the edge array; the k-th
  /// edge of edges(g) has absolute index edge_offset(g) + k.
  std::size_t edge_offset(int g) const { return edge_begin_[g]; }
  const Edge& edge_at(std::size_t idx) const { return edge_data_[idx]; }

  /// The switch an edge crosses: the macro owning it and its routing bit,
  /// the switch's index within that macro's routing region (MacroModel
  /// canonical order).
  struct Switch {
    int macro;
    int bit;
  };
  Switch edge_switch(const Edge& e) const {
    return {static_cast<int>(e.sw / route_bits_),
            static_cast<int>(e.sw % route_bits_)};
  }

  // --- ports carried by a node ---------------------------------------------
  struct MacroPort {
    std::int32_t macro;
    std::int32_t port;
  };
  /// All (macro, port) identities of a global node: two for an abutted
  /// boundary wire, one for a fabric-edge wire or an LB pin, zero for an
  /// interior segment.
  std::span<const MacroPort> node_ports(int g) const {
    return {port_data_.data() + port_begin_[g],
            port_data_.data() + port_begin_[g + 1]};
  }

  /// Heap bytes of the graph: node, edge and port arrays and the macro
  /// model.
  std::size_t bytes() const;

  /// Bit index of a routing switch within the full-fabric raw frame.
  std::size_t switch_config_bit(int m, int point, int pair) const {
    return macro_config_offset(m) + spec().nlb_bits() +
           macro_.switch_points()[point].bit_offset + pair;
  }

 private:
  MacroModel macro_;
  std::uint32_t route_bits_;  ///< spec().nroute_bits(), the switch-id stride
  int num_nodes_ = 0;
  std::vector<std::int32_t> node_of_raw_;  ///< raw (macro,local) -> global
  std::vector<std::int16_t> pos_x_, pos_y_, local_;
  std::vector<std::uint32_t> edge_begin_;
  std::vector<Edge> edge_data_;
  std::vector<std::uint32_t> port_begin_;
  std::vector<MacroPort> port_data_;
};

}  // namespace vbs
