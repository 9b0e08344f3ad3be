#include "core/min_sig_tree.h"

#include <algorithm>
#include <map>
#include <utility>

#include "util/check.h"
#include "util/parallel.h"

namespace dtrace {

namespace {

// Per-routing-index accumulator used during grouping.
struct Group {
  std::vector<EntityId> members;
  uint64_t value = ~uint64_t{0};
  std::vector<uint64_t> full_sig;
};

}  // namespace

uint32_t MinSigTree::AddNode(Level level, int routing, uint64_t value,
                             int32_t parent) {
  Node n;
  n.level = level;
  n.routing = routing;
  n.value = value;
  n.parent = parent;
  nodes_.push_back(std::move(n));
  const auto idx = static_cast<uint32_t>(nodes_.size() - 1);
  nodes_[parent].children.push_back(idx);
  return idx;
}

void MinSigTree::NoteLeafMembership(EntityId e, uint32_t leaf) {
  if (e >= leaf_of_.size()) leaf_of_.resize(e + 1, -1);
  DT_CHECK_MSG(leaf_of_[e] < 0, "entity already indexed");
  leaf_of_[e] = static_cast<int32_t>(leaf);
  ++num_entities_;
}

MinSigTree MinSigTree::Build(const SignatureComputer& sigs,
                             std::span<const EntityId> entities,
                             Options options) {
  const int m = sigs.store().hierarchy().num_levels();
  const int nh = sigs.hasher().num_functions();
  MinSigTree tree(m, nh, options);
  const int num_threads = ResolveThreadCount(options.num_threads);

  // Frontier of (node index, member entities) pairs, advanced one sp-index
  // level at a time (Algorithm 1's queue, level-synchronous).
  std::vector<std::pair<uint32_t, std::vector<EntityId>>> frontier;
  frontier.emplace_back(tree.root(),
                        std::vector<EntityId>(entities.begin(), entities.end()));

  // Per-entity slots filled by the parallel phase each level, addressed by
  // position in the frontier's concatenated member lists. `full` holds only
  // the in-flight batch (see below), indexed relative to the batch start.
  std::vector<EntityId> flat;
  std::vector<int> routing;
  std::vector<uint64_t> value;
  std::vector<uint64_t> full;  // [(pos - batch_begin) * nh + u], full-sig mode

  // In store_full_signatures mode each entity transiently needs nh values,
  // so computing a whole level at once would cost |frontier| * nh * 8 bytes.
  // The grouping phase consumes positions strictly in order, so a bounded
  // batch (~8 MB of full signatures) keeps the transient flat in |E| while
  // still giving every worker a full chunk. Default mode stores only
  // (routing, value) per entity and runs as one batch.
  const auto batch_size = [&](size_t n) {
    if (!options.store_full_signatures) return n;
    const size_t cap = std::max<size_t>(
        static_cast<size_t>(num_threads),
        options.full_sig_batch_bytes /
            (static_cast<size_t>(nh) * sizeof(uint64_t)));
    return std::min(n, cap);
  };

  for (Level level = 1; level <= m; ++level) {
    flat.clear();
    for (const auto& [node_idx, members] : frontier) {
      flat.insert(flat.end(), members.begin(), members.end());
    }
    routing.resize(flat.size());
    value.resize(flat.size());
    const size_t batch = batch_size(flat.size());
    if (options.store_full_signatures) {
      full.resize(batch * static_cast<size_t>(nh));
    }

    // Phase 1 (parallel, one batch at a time): each entity's level-`level`
    // signature is independent of every other's, so compute routing index +
    // routing value (and the full signature in ablation mode) into disjoint
    // position-indexed slots. Entity order is fixed by the frontier, so the
    // serial grouping below sees identical inputs for any thread count.
    size_t batch_begin = 0, batch_end = 0;
    const auto compute_through = [&](size_t pos) {
      if (pos < batch_end) return;
      batch_begin = pos;
      batch_end = std::min(flat.size(), pos + batch);
      ParallelFor(num_threads, batch_end - batch_begin,
                  [&](size_t begin, size_t end) {
        std::vector<uint64_t> sig(nh), scratch(nh);
        for (size_t i = begin; i < end; ++i) {
          const size_t p = batch_begin + i;
          sigs.ComputeLevel(flat[p], level, sig, scratch);
          const int r = SignatureComputer::RoutingIndex(sig);
          routing[p] = r;
          value[p] = sig[r];
          if (options.store_full_signatures) {
            std::copy(sig.begin(), sig.end(),
                      full.begin() + i * static_cast<size_t>(nh));
          }
        }
      });
    };

    // Phase 2 (serial): group members by routing index exactly as the
    // single-threaded build always has; std::map keeps child order
    // deterministic (ascending routing index).
    std::vector<std::pair<uint32_t, std::vector<EntityId>>> next;
    size_t pos = 0;
    for (auto& [node_idx, members] : frontier) {
      std::map<int, Group> groups;
      for (EntityId e : members) {
        compute_through(pos);
        const int r = routing[pos];
        Group& g = groups[r];
        g.members.push_back(e);
        g.value = std::min(g.value, value[pos]);
        if (options.store_full_signatures) {
          const uint64_t* sig =
              full.data() + (pos - batch_begin) * static_cast<size_t>(nh);
          if (g.full_sig.empty()) {
            g.full_sig.assign(sig, sig + nh);
          } else {
            for (int u = 0; u < nh; ++u) {
              g.full_sig[u] = std::min(g.full_sig[u], sig[u]);
            }
          }
        }
        ++pos;
      }
      for (auto& [r, g] : groups) {
        const uint32_t child = tree.AddNode(level, r, g.value,
                                            static_cast<int32_t>(node_idx));
        if (options.store_full_signatures) {
          tree.nodes_[child].full_sig = std::move(g.full_sig);
        }
        if (level == m) {
          for (EntityId e : g.members) tree.NoteLeafMembership(e, child);
          tree.nodes_[child].entities = std::move(g.members);
        } else {
          next.emplace_back(child, std::move(g.members));
        }
      }
      members.clear();
      members.shrink_to_fit();
    }
    frontier = std::move(next);
  }
  return tree;
}

MinSigTree MinSigTree::FromNodes(int m, int nh, Options options,
                                 std::vector<Node> nodes) {
  DT_CHECK_MSG(!nodes.empty(), "restored tree has no root");
  MinSigTree tree(m, nh, options);
  tree.nodes_ = std::move(nodes);
  for (uint32_t i = 0; i < tree.nodes_.size(); ++i) {
    const Node& n = tree.nodes_[i];
    if (n.level != m) continue;
    for (EntityId e : n.entities) tree.NoteLeafMembership(e, i);
  }
  return tree;
}

void MinSigTree::Insert(EntityId e, const SignatureComputer& sigs) {
  std::vector<int> routing(m_);
  std::vector<uint64_t> value(m_);
  std::vector<uint64_t> full;
  if (opts_.store_full_signatures) {
    full.resize(static_cast<size_t>(m_) * nh_);
  }
  std::vector<uint64_t> sig(nh_), scratch(nh_);
  for (Level level = 1; level <= m_; ++level) {
    sigs.ComputeLevel(e, level, sig, scratch);
    const int r = SignatureComputer::RoutingIndex(sig);
    routing[level - 1] = r;
    value[level - 1] = sig[r];
    if (!full.empty()) {
      std::copy(sig.begin(), sig.end(),
                full.begin() + static_cast<size_t>(level - 1) * nh_);
    }
  }
  InsertPrecomputed(e, routing.data(), value.data(),
                    full.empty() ? nullptr : full.data());
}

void MinSigTree::InsertPrecomputed(EntityId e, const int* routing,
                                   const uint64_t* value,
                                   const uint64_t* full) {
  DT_CHECK_MSG(!Contains(e), "entity already in tree");
  uint32_t cur = root();
  for (Level level = 1; level <= m_; ++level) {
    const int r = routing[level - 1];
    const uint64_t v = value[level - 1];
    const uint64_t* level_sig =
        full ? full + static_cast<size_t>(level - 1) * nh_ : nullptr;
    // Find the child with this routing index, if any.
    uint32_t child = 0;
    bool found = false;
    for (uint32_t c : nodes_[cur].children) {
      if (nodes_[c].routing == r) {
        child = c;
        found = true;
        break;
      }
    }
    if (found) {
      Node& cn = nodes_[child];
      cn.value = std::min(cn.value, v);
      if (level_sig != nullptr) {
        for (int u = 0; u < nh_; ++u) {
          cn.full_sig[u] = std::min(cn.full_sig[u], level_sig[u]);
        }
      }
    } else {
      child = AddNode(level, r, v, static_cast<int32_t>(cur));
      if (level_sig != nullptr) {
        nodes_[child].full_sig.assign(level_sig, level_sig + nh_);
      }
    }
    cur = child;
  }
  nodes_[cur].entities.push_back(e);
  NoteLeafMembership(e, cur);
}

void MinSigTree::InsertBatch(std::span<const EntityId> entities,
                             const SignatureComputer& sigs) {
  const size_t n = entities.size();
  if (n == 0) return;
  const int num_threads = ResolveThreadCount(opts_.num_threads);
  // Bound the transient full-signature buffer exactly as Build does.
  size_t batch = n;
  if (opts_.store_full_signatures) {
    const size_t cap = std::max<size_t>(
        static_cast<size_t>(num_threads),
        opts_.full_sig_batch_bytes /
            (static_cast<size_t>(m_) * nh_ * sizeof(uint64_t)));
    batch = std::min(n, cap);
  }
  std::vector<int> routing(n * static_cast<size_t>(m_));
  std::vector<uint64_t> value(n * static_cast<size_t>(m_));
  std::vector<uint64_t> full;  // [(i - b0) * m + (l-1)] * nh, full-sig mode
  if (opts_.store_full_signatures) {
    full.resize(batch * static_cast<size_t>(m_) * nh_);
  }
  for (size_t b0 = 0; b0 < n; b0 += batch) {
    const size_t b1 = std::min(n, b0 + batch);
    // Phase 1 (parallel): each entity's signatures into disjoint slots.
    ParallelFor(num_threads, b1 - b0, [&](size_t begin, size_t end) {
      std::vector<uint64_t> sig(nh_), scratch(nh_);
      for (size_t i = begin; i < end; ++i) {
        const EntityId e = entities[b0 + i];
        for (Level level = 1; level <= m_; ++level) {
          sigs.ComputeLevel(e, level, sig, scratch);
          const int r = SignatureComputer::RoutingIndex(sig);
          const size_t slot = (b0 + i) * static_cast<size_t>(m_) + (level - 1);
          routing[slot] = r;
          value[slot] = sig[r];
          if (!full.empty()) {
            std::copy(sig.begin(), sig.end(),
                      full.begin() +
                          (i * static_cast<size_t>(m_) + (level - 1)) * nh_);
          }
        }
      }
    });
    // Phase 2 (serial, input order): identical to sequential Insert calls.
    for (size_t i = b0; i < b1; ++i) {
      const size_t slot = i * static_cast<size_t>(m_);
      InsertPrecomputed(
          entities[i], routing.data() + slot, value.data() + slot,
          full.empty()
              ? nullptr
              : full.data() + (i - b0) * static_cast<size_t>(m_) * nh_);
    }
  }
}

void MinSigTree::Remove(EntityId e) {
  DT_CHECK_MSG(Contains(e), "entity not in tree");
  Node& leaf = nodes_[static_cast<uint32_t>(leaf_of_[e])];
  auto it = std::find(leaf.entities.begin(), leaf.entities.end(), e);
  DT_CHECK(it != leaf.entities.end());
  leaf.entities.erase(it);
  leaf_of_[e] = -1;
  --num_entities_;
}

void MinSigTree::Update(EntityId e, const SignatureComputer& sigs) {
  Remove(e);
  Insert(e, sigs);
}

void MinSigTree::RefreshValues(const SignatureComputer& sigs) {
  for (size_t i = 1; i < nodes_.size(); ++i) {
    nodes_[i].value = ~uint64_t{0};
    if (opts_.store_full_signatures) {
      nodes_[i].full_sig.assign(nh_, ~uint64_t{0});
    }
  }
  std::vector<EntityId> active;
  active.reserve(num_entities_);
  for (size_t i = 0; i < leaf_of_.size(); ++i) {
    if (leaf_of_[i] >= 0) active.push_back(static_cast<EntityId>(i));
  }
  const size_t n = active.size();
  if (n == 0) return;
  const int num_threads = ResolveThreadCount(opts_.num_threads);
  // Signature recomputation is the dominant cost and is independent per
  // entity, so it runs in parallel into per-entity slots; the min-merge
  // into shared node values stays serial. The merge is a pure min, so the
  // refreshed tree is identical for every thread count (and to the
  // historical fully-serial walk). Full-signature mode bounds the transient
  // buffer exactly as Build does.
  size_t batch = n;
  if (opts_.store_full_signatures) {
    const size_t cap = std::max<size_t>(
        static_cast<size_t>(num_threads),
        opts_.full_sig_batch_bytes /
            (static_cast<size_t>(m_) * nh_ * sizeof(uint64_t)));
    batch = std::min(n, cap);
  }
  // vals[(i - b0) * m + (l-1)]: e's level-l signature at the routing index
  // of e's ancestor at level l.
  std::vector<uint64_t> vals(batch * static_cast<size_t>(m_));
  std::vector<uint64_t> full;
  if (opts_.store_full_signatures) {
    full.resize(batch * static_cast<size_t>(m_) * nh_);
  }
  for (size_t b0 = 0; b0 < n; b0 += batch) {
    const size_t b1 = std::min(n, b0 + batch);
    ParallelFor(num_threads, b1 - b0, [&](size_t begin, size_t end) {
      std::vector<uint64_t> sig(nh_), scratch(nh_);
      std::vector<int> route(m_);
      for (size_t i = begin; i < end; ++i) {
        const EntityId e = active[b0 + i];
        uint32_t cur = static_cast<uint32_t>(leaf_of_[e]);
        for (Level l = m_; l >= 1; --l) {
          route[l - 1] = nodes_[cur].routing;
          cur = static_cast<uint32_t>(nodes_[cur].parent);
        }
        for (Level l = 1; l <= m_; ++l) {
          sigs.ComputeLevel(e, l, sig, scratch);
          vals[i * static_cast<size_t>(m_) + (l - 1)] = sig[route[l - 1]];
          if (!full.empty()) {
            std::copy(sig.begin(), sig.end(),
                      full.begin() +
                          (i * static_cast<size_t>(m_) + (l - 1)) * nh_);
          }
        }
      }
    });
    for (size_t i = b0; i < b1; ++i) {
      uint32_t cur = static_cast<uint32_t>(leaf_of_[active[i]]);
      while (cur != root()) {
        Node& nd = nodes_[cur];
        const size_t slot =
            (i - b0) * static_cast<size_t>(m_) + (nd.level - 1);
        nd.value = std::min(nd.value, vals[slot]);
        if (!full.empty()) {
          const uint64_t* level_sig = full.data() + slot * nh_;
          for (int u = 0; u < nh_; ++u) {
            nd.full_sig[u] = std::min(nd.full_sig[u], level_sig[u]);
          }
        }
        cur = static_cast<uint32_t>(nd.parent);
      }
    }
  }
}

namespace {

// TreeSource cursor over the heap nodes: views alias the Node vectors, so
// there is nothing to copy and nothing to charge.
class InMemoryNodeCursor final : public TreeNodeCursor {
 public:
  explicit InMemoryNodeCursor(const MinSigTree* tree) : tree_(tree) {}

  TreeNodeView Node(uint32_t id) override {
    const MinSigTree::Node& n = tree_->node(id);
    return {n.level, n.routing, n.value, n.children, n.entities, n.full_sig};
  }

 private:
  const MinSigTree* tree_;
};

}  // namespace

std::unique_ptr<TreeNodeCursor> MinSigTree::OpenNodeCursor() const {
  return std::make_unique<InMemoryNodeCursor>(this);
}

uint64_t MinSigTree::MemoryBytes() const {
  // Per the paper (Sec. 7.8): each node stores a routing index and the hash
  // value at that index; leaves additionally point at their entity lists.
  uint64_t bytes = 0;
  for (const auto& n : nodes_) {
    bytes += sizeof(uint32_t) + sizeof(uint64_t) + sizeof(uint32_t);
    bytes += n.entities.size() * sizeof(EntityId);
    bytes += n.full_sig.size() * sizeof(uint64_t);
  }
  return bytes;
}

void MinSigTree::CheckInvariants(const SignatureComputer& sigs) const {
  // Structure: child/parent links and level increments.
  for (size_t i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    DT_CHECK(n.parent >= 0);
    const Node& p = nodes_[static_cast<size_t>(n.parent)];
    DT_CHECK(p.level + 1 == n.level);
    DT_CHECK(std::find(p.children.begin(), p.children.end(), i) !=
             p.children.end());
    DT_CHECK(n.routing >= 0 && n.routing < nh_);
    if (n.level < m_) DT_CHECK(n.entities.empty());
  }
  // Sibling routing indexes are unique.
  for (const auto& n : nodes_) {
    std::vector<int> rs;
    for (uint32_t c : n.children) rs.push_back(nodes_[c].routing);
    std::sort(rs.begin(), rs.end());
    DT_CHECK(std::adjacent_find(rs.begin(), rs.end()) == rs.end());
  }
  // Dominance: every node value is <= each member's signature at the node's
  // (level, routing) — the exactness invariant.
  size_t seen = 0;
  for (size_t i = 0; i < leaf_of_.size(); ++i) {
    if (leaf_of_[i] < 0) continue;
    ++seen;
    const auto e = static_cast<EntityId>(i);
    const SignatureList sig = sigs.Compute(e);
    uint32_t cur = static_cast<uint32_t>(leaf_of_[e]);
    DT_CHECK(nodes_[cur].level == m_);
    DT_CHECK(std::find(nodes_[cur].entities.begin(),
                       nodes_[cur].entities.end(),
                       e) != nodes_[cur].entities.end());
    while (cur != root()) {
      const Node& n = nodes_[cur];
      DT_CHECK(n.value <= sig.level(n.level)[n.routing]);
      if (!n.full_sig.empty()) {
        for (int u = 0; u < nh_; ++u) {
          DT_CHECK(n.full_sig[u] <= sig.level(n.level)[u]);
        }
      }
      cur = static_cast<uint32_t>(n.parent);
    }
  }
  DT_CHECK(seen == num_entities_);
}

}  // namespace dtrace
