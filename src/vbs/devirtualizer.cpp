#include "vbs/devirtualizer.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "arch/lookahead.h"
#include "util/epoch.h"
#include "util/error.h"
#include "util/telemetry.h"

namespace vbs {

DecodeStats& DecodeStats::operator+=(const DecodeStats& o) {
  pairs_routed += o.pairs_routed;
  pairs_failed += o.pairs_failed;
  nodes_expanded += o.nodes_expanded;
  entries_decoded += o.entries_decoded;
  raw_entries += o.raw_entries;
  negotiation_iterations += o.negotiation_iterations;
  return *this;
}

Devirtualizer::Devirtualizer(const RegionModel& region)
    : region_(&region), lookahead_(Lookahead::of(region.spec())) {
  const auto n = static_cast<std::size_t>(region.num_nodes());
  occ_.assign(n, 0);
  hist_.assign(n, 0.0f);
  visit_.assign(n, {0, 0.0f, -1, -1});
  tree_stamp_.assign(n, 0);
  node_owner_.assign(n, kAnyGroup);
  port_group_.assign(static_cast<std::size_t>(region.num_ports()), -1);
}

std::size_t Devirtualizer::state_bytes() const {
  auto of = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return of(occ_) + of(hist_) + of(visit_) + of(tree_stamp_) +
         of(node_owner_) + of(port_group_);
}

void Devirtualizer::add_to_tree(Group& g, std::int32_t node,
                                std::int32_t switch_bit) {
  g.tree.push_back({node, switch_bit});
  tree_stamp_[static_cast<std::size_t>(node)] = tree_epoch_;
  ++occ_[static_cast<std::size_t>(node)];
}

bool Devirtualizer::route_group(Group& g, double pres_fac) {
  const RegionModel& rm = *region_;
  const Lookahead& la = *lookahead_;
  g.tree.clear();
  bump_epoch(tree_epoch_, kEpochWrapMetric, {&tree_stamp_});
  add_to_tree(g, g.source_node, -1);

  for (const int target : g.targets) {
    // The source, or already absorbed by an earlier pair's path?
    if (tree_stamp_[static_cast<std::size_t>(target)] == tree_epoch_) continue;

    const std::uint32_t epoch =
        bump_epoch(search_epoch_, kEpochWrapMetric, [&] {
          for (Visit& vi : visit_) vi.epoch = 0;
        });
    heap_.clear();
    ++counts_.searches;
    // The estimate: the lookahead bound from a node to the target's port.
    // Targets are region ports, so their node carries a macro port.
    const Point tp = rm.node_tile(target);
    const int tport = rm.macro().node_port(rm.node_local(target));
    assert(tport >= 0);
    const auto heur = [&rm, &la, tp, tport](int v) {
      const Point p = rm.node_tile(v);
      return static_cast<float>(
          la.bound(tport, rm.node_local(v), p.x - tp.x, p.y - tp.y));
    };
    for (const TreeNode& tn : g.tree) {
      visit_[static_cast<std::size_t>(tn.node)] = {epoch, 0.0f, -1, -1};
      heap_.push(heur(tn.node), 0.0f, tn.node);
    }
    bool found = false;
    while (!heap_.empty()) {
      const SearchHeap::Entry top = heap_.pop();
      ++expanded_;
      const int node = top.node();
      const Visit& at = visit_[static_cast<std::size_t>(node)];
      if (at.epoch != epoch || at.cost != top.cost) {
        ++counts_.stale_pops;
        continue;
      }
      if (node == target) {
        found = true;
        break;
      }
      for (const RegionModel::Adj& adj : rm.adjacency(node)) {
        const auto v = static_cast<std::size_t>(adj.to);
        // Port wires are reserved for the signal that declares them; this
        // is a hard constraint, not a negotiable cost (it protects wires
        // shared with neighbouring, independently decoded regions).
        const std::int32_t owner = node_owner_[v];
        if (owner != kAnyGroup && owner != g.id) continue;
        const float nc =
            top.cost +
            (1.0f + hist_[v]) *
                (1.0f + static_cast<float>(pres_fac) * occ_[v]);
        Visit& to = visit_[v];
        if (to.epoch != epoch || nc < to.cost) {
          to = {epoch, nc, node, adj.bit};
          heap_.push(nc + heur(adj.to), nc, adj.to);
        }
      }
    }
    if (!found) return false;
    for (int v = target; visit_[static_cast<std::size_t>(v)].back != -1;
         v = visit_[static_cast<std::size_t>(v)].back) {
      add_to_tree(g, v, visit_[static_cast<std::size_t>(v)].back_bit);
      ++counts_.path_nodes;
    }
  }
  return true;
}

void Devirtualizer::rip_up(Group& g) {
  for (const TreeNode& tn : g.tree) {
    --occ_[static_cast<std::size_t>(tn.node)];
  }
  g.tree.clear();
}

bool Devirtualizer::decode_entry(const VbsEntry& entry, BitVector& routing_out,
                                 DecodeStats* stats) {
  DecodeStats st;
  const bool ok = decode(entry, routing_out, st);
  if (stats) *stats += st;
  if (telem::enabled()) {
    telem::counter_add("vbs.decode.entries", st.entries_decoded);
    telem::counter_add("vbs.decode.raw_entries", st.raw_entries);
    telem::counter_add("vbs.decode.nodes_expanded", st.nodes_expanded);
    telem::counter_add("vbs.decode.negotiation_iterations",
                       st.negotiation_iterations);
    telem::counter_add("vbs.decode.searches", counts_.searches);
    telem::counter_add("vbs.decode.path_nodes", counts_.path_nodes);
    telem::counter_add("vbs.decode.stale_pops", counts_.stale_pops);
  }
  return ok;
}

bool Devirtualizer::decode(const VbsEntry& entry, BitVector& routing_out,
                           DecodeStats& stats) {
  const RegionModel& rm = *region_;
  const int c = rm.cluster();
  const std::size_t payload_bits =
      static_cast<std::size_t>(c) * c * rm.spec().nroute_bits();

  ++stats.entries_decoded;
  counts_ = {};
  if (entry.raw) {
    routing_out = entry.raw_routing;
    ++stats.raw_entries;
    return true;
  }
  routing_out.resize(payload_bits);
  routing_out.reset();
  if (entry.conns.empty()) return true;

  // --- signal groups: one per distinct `in` port --------------------------
  std::fill(port_group_.begin(), port_group_.end(), -1);
  groups_.clear();
  auto claim_port = [&](int port, int group) -> bool {
    if (port < 0 || port >= rm.num_ports()) return false;
    const auto sp = static_cast<std::size_t>(port);
    if (port_group_[sp] != -1) return port_group_[sp] == group;
    port_group_[sp] = group;
    return true;
  };
  for (const VbsConnection& conn : entry.conns) {
    if (conn.in == conn.out) return false;
    if (conn.in >= rm.num_ports() || conn.out >= rm.num_ports()) return false;
    // Ports outside a partial region's extent carry no wire.
    if (rm.port_node(conn.in) < 0 || rm.port_node(conn.out) < 0) return false;
    int g = port_group_[static_cast<std::size_t>(conn.in)];
    if (g == -1) {
      g = static_cast<int>(groups_.size());
      groups_.push_back({});
      groups_.back().id = g;
      groups_.back().source_node = rm.port_node(conn.in);
      claim_port(conn.in, g);
    }
    // An `out` already claimed by a different signal is a short: reject.
    if (!claim_port(conn.out, g)) return false;
    groups_[static_cast<std::size_t>(g)].targets.push_back(
        rm.port_node(conn.out));
  }
  for (std::size_t n = 0; n < node_owner_.size(); ++n) {
    const int port = rm.node_port(static_cast<int>(n));
    node_owner_[n] =
        port < 0 ? kAnyGroup : port_group_[static_cast<std::size_t>(port)];
  }

  // --- negotiated-congestion decode ---------------------------------------
  // First pass is the pure greedy, stateful decode (paper Section II-C);
  // remaining iterations negotiate conflicts exactly like the global
  // router, which is the "higher computing power" the paper attributes to
  // coarser-grain decoding (Section IV-B).
  std::fill(occ_.begin(), occ_.end(), 0);
  std::fill(hist_.begin(), hist_.end(), 0.0f);
  expanded_ = 0;

  double pres_fac = 0.0;
  bool converged = false;
  for (int iter = 1; iter <= max_iterations_; ++iter) {
    ++stats.negotiation_iterations;
    for (Group& g : groups_) {
      if (iter > 1) {
        bool congested = false;
        for (const TreeNode& tn : g.tree) {
          congested |= occ_[static_cast<std::size_t>(tn.node)] > 1;
        }
        if (!congested) continue;
        rip_up(g);
      }
      if (!route_group(g, pres_fac)) {
        ++stats.pairs_failed;
        stats.nodes_expanded += expanded_;
        return false;
      }
    }
    std::size_t overused = 0;
    for (std::size_t v = 0; v < occ_.size(); ++v) {
      if (occ_[v] > 1) {
        ++overused;
        hist_[v] += static_cast<float>(occ_[v] - 1);
      }
    }
    if (overused == 0) {
      converged = true;
      break;
    }
    pres_fac = iter == 1 ? 1.0 : pres_fac * 2.0;
  }
  stats.nodes_expanded += expanded_;
  stats.pairs_routed += static_cast<long long>(entry.conns.size());
  if (!converged) {
    ++stats.pairs_failed;
    return false;
  }

  // --- realize switches ------------------------------------------------------
  for (const Group& g : groups_) {
    for (const TreeNode& tn : g.tree) {
      if (tn.switch_bit >= 0) {
        routing_out.set(static_cast<std::size_t>(tn.switch_bit), true);
      }
    }
  }
  return true;
}

void write_entry_config(const VbsImage& img, const VbsEntry& entry,
                        const BitVector& routing, const FabricLayout& target,
                        Point origin, BitVector& config) {
  const ArchSpec& spec = img.spec;
  const int c = img.cluster;
  const auto nlb = static_cast<std::size_t>(spec.nlb_bits());
  const auto rbits = static_cast<std::size_t>(spec.nroute_bits());
  for (int uy = 0; uy < c; ++uy) {
    for (int ux = 0; ux < c; ++ux) {
      const int tx = entry.cx * c + ux;
      const int ty = entry.cy * c + uy;
      if (tx >= img.task_w || ty >= img.task_h) continue;  // partial cluster
      const int m = target.macro_index(origin.x + tx, origin.y + ty);
      const std::size_t base = target.macro_config_offset(m);
      const int u = uy * c + ux;
      const LogicConfig& lc = entry.logic[static_cast<std::size_t>(u)];
      if (lc.used) write_logic_bits(config, base, lc, spec);
      config.or_range(base + nlb, routing, static_cast<std::size_t>(u) * rbits,
                      rbits);
    }
  }
}

std::pair<int, int> RegionDecoderCache::extent_of(const VbsImage& header,
                                                  int cx, int cy) {
  const int c = header.cluster;
  return {std::min(c, header.task_w - cx * c),
          std::min(c, header.task_h - cy * c)};
}

RegionDecoderCache::Slot& RegionDecoderCache::slot_for(const VbsImage& header,
                                                       int cx, int cy) {
  const auto [w, h] = extent_of(header, cx, cy);
  if (w < 1 || h < 1) {
    throw VbsError(VbsErrc::kBadEntry,
                   "region cache: entry outside the task");
  }
  const auto hit =
      std::find_if(slots_.begin(), slots_.end(), [&](const auto& s) {
        const RegionModel& rm = *s->region;
        return rm.cluster() == header.cluster && rm.extent_w() == w &&
               rm.extent_h() == h && rm.spec() == header.spec;
      });
  if (hit != slots_.end()) {
    std::rotate(slots_.begin(), hit, hit + 1);
    return *slots_.front();
  }
  auto region =
      std::make_unique<RegionModel>(header.spec, header.cluster, w, h);
  auto decoder = std::make_unique<Devirtualizer>(*region);
  const std::size_t bytes = region->bytes() + decoder->state_bytes();
  slots_.insert(slots_.begin(),
                std::make_unique<Slot>(
                    Slot{std::move(region), std::move(decoder), bytes}));
  while (slots_.size() > 1 &&
         (slots_.size() > kMaxShapes || retained_bytes() > kMaxBytes)) {
    slots_.pop_back();
  }
  return *slots_.front();
}

std::size_t RegionDecoderCache::retained_bytes() const {
  std::size_t bytes = 0;
  for (auto it = slots_.begin(); it != slots_.end(); ++it) {
    const Slot& s = **it;
    const ArchSpec& spec = s.region->spec();
    bytes += s.bytes;
    // Count each architecture's shared macro model and lookahead table
    // at the first (most recent) shape that holds them.
    auto same_arch = [&](const auto& o) { return o->region->spec() == spec; };
    if (std::none_of(slots_.begin(), it, same_arch)) {
      bytes += s.region->macro().bytes() + Lookahead::table_bytes(spec);
    }
  }
  return bytes;
}

const RegionModel& RegionDecoderCache::region_for(const VbsImage& header,
                                                  int cx, int cy) {
  return *slot_for(header, cx, cy).region;
}

Devirtualizer& RegionDecoderCache::decoder_for(const VbsImage& header,
                                               const VbsEntry& entry) {
  return *slot_for(header, entry.cx, entry.cy).decoder;
}

std::size_t DecodedStream::footprint_bits() const {
  std::size_t bits = 0;
  for (const BitVector& p : payloads) bits += p.size();
  return bits;
}

std::shared_ptr<DecodedStream> decode_stream(VbsImage image,
                                             DecodeStats* spent) {
  RegionDecoderCache decoders;
  return decode_stream(std::move(image), decoders, spent);
}

std::shared_ptr<DecodedStream> decode_stream(VbsImage image,
                                             RegionDecoderCache& decoders,
                                             DecodeStats* spent) {
  auto out = std::make_shared<DecodedStream>();
  out->image = std::move(image);
  const VbsImage& img = out->image;
  out->payloads.resize(img.entries.size());
  for (std::size_t i = 0; i < img.entries.size(); ++i) {
    const VbsEntry& e = img.entries[i];
    DecodeStats cost;
    const bool ok =
        decoders.decoder_for(img, e).decode_entry(e, out->payloads[i], &cost);
    out->decode += cost;
    if (spent != nullptr) *spent += cost;
    if (!ok) {
      throw VbsError(VbsErrc::kDecodeFailed,
                     "decode: connection list failed to route (entry at " +
                         std::to_string(e.cx) + "," + std::to_string(e.cy) +
                         ")");
    }
  }
  return out;
}

BitVector devirtualize_image(const VbsImage& img, const FabricLayout& target,
                             Point origin, DecodeStats* stats) {
  if (img.spec.chan_width != target.spec().chan_width ||
      img.spec.lut_k != target.spec().lut_k ||
      img.spec.sb_pattern != target.spec().sb_pattern) {
    throw VbsError(VbsErrc::kArchMismatch,
                   "devirtualize: architecture mismatch");
  }
  if (origin.x < 0 || origin.y < 0 ||
      origin.x + img.task_w > target.width() ||
      origin.y + img.task_h > target.height()) {
    throw VbsError(VbsErrc::kNoPlacement,
                   "devirtualize: task does not fit at origin");
  }
  const auto decoded = decode_stream(img, stats);
  BitVector config(target.config_bits_total());
  for (std::size_t i = 0; i < img.entries.size(); ++i) {
    write_entry_config(img, img.entries[i], decoded->payloads[i], target,
                       origin, config);
  }
  return config;
}

}  // namespace vbs
