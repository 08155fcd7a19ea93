// Property suite for the bucket-based many-to-many table engine: on
// randomized generator networks (grid / jittered city / one-way-heavy /
// radial variants), every CHTableEngine cell must equal the corresponding
// ChEngine::Query::distances() row bit for bit and match plain Dijkstra —
// unreachable pairs, source == target zeros, empty spans, duplicate
// endpoints and ε-bounded early exit included. A concurrency section runs
// per-thread table engines over one shared hierarchy (TSan coverage), and
// the alias guard added with the engine is exercised directly.
#include "roadnet/ch_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "roadnet/builder.h"
#include "roadnet/ch_engine.h"
#include "roadnet/generators.h"
#include "roadnet/shortest_path.h"

namespace neat::roadnet {
namespace {

struct NamedNet {
  const char* name;
  RoadNetwork net;
};

std::vector<NamedNet> test_networks() {
  std::vector<NamedNet> nets;
  nets.push_back({"grid12", make_grid(12, 12, 150.0)});
  CityParams city;
  city.rows = 14;
  city.cols = 14;
  city.seed = 3;
  nets.push_back({"city-seed3", make_city(city)});
  city.seed = 9;
  city.oneway_probability = 0.4;
  nets.push_back({"city-oneway", make_city(city)});
  RadialCityParams radial;
  radial.rings = 6;
  radial.spokes = 9;
  radial.seed = 5;
  nets.push_back({"radial", make_radial_city(radial)});
  return nets;
}

NodeId random_node(Rng& rng, const RoadNetwork& net) {
  return NodeId(static_cast<std::int32_t>(rng.index(net.node_count())));
}

std::vector<NodeId> random_nodes(Rng& rng, const RoadNetwork& net, std::size_t n) {
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < n; ++i) nodes.push_back(random_node(rng, net));
  return nodes;
}

/// One table fill into a fresh row-major cell vector.
std::vector<double> fill(CHTableEngine& engine, const std::vector<NodeId>& sources,
                         const std::vector<NodeId>& targets,
                         double bound = kInfDistance) {
  std::vector<double> cells(sources.size() * targets.size(), -1.0);
  engine.table(sources, targets, cells, bound);
  return cells;
}

TEST(ChTable, MatchesQueryRowByRowOnGeneratorNetworks) {
  // The exactness contract: each table row is bit-identical to the batch
  // one-to-many answer for the same source, bounded and unbounded alike.
  for (const NamedNet& t : test_networks()) {
    const ChEngine ch(t.net);
    CHTableEngine table(ch);
    ChEngine::Query query(ch);
    Rng rng(1234);
    for (int round = 0; round < 6; ++round) {
      const std::vector<NodeId> sources = random_nodes(rng, t.net, 9);
      const std::vector<NodeId> targets = random_nodes(rng, t.net, 13);
      const double bound = (round % 2 == 0) ? kInfDistance : 1100.0;
      const std::vector<double> cells = fill(table, sources, targets, bound);
      std::vector<double> row(targets.size());
      for (std::size_t i = 0; i < sources.size(); ++i) {
        query.distances(sources[i], targets, row, bound);
        for (std::size_t k = 0; k < targets.size(); ++k) {
          EXPECT_EQ(cells[i * targets.size() + k], row[k])
              << t.name << " round " << round << " cell (" << i << ", " << k << ")";
        }
      }
    }
  }
}

TEST(ChTable, MatchesPlainDijkstraOnGeneratorNetworks) {
  for (const NamedNet& t : test_networks()) {
    const ChEngine ch(t.net);
    CHTableEngine table(ch);
    NodeDistanceOracle oracle(t.net);
    Rng rng(777);
    const std::vector<NodeId> sources = random_nodes(rng, t.net, 8);
    const std::vector<NodeId> targets = random_nodes(rng, t.net, 8);
    const std::vector<double> cells = fill(table, sources, targets);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      for (std::size_t k = 0; k < targets.size(); ++k) {
        EXPECT_DOUBLE_EQ(cells[i * targets.size() + k],
                         oracle.distance(sources[i], targets[k]))
            << t.name << " cell (" << i << ", " << k << ")";
      }
    }
  }
}

TEST(ChTable, UnreachablePairsAreInfinite) {
  // Two disconnected components; cross-component cells must be infinite and
  // within-component cells exact.
  RoadNetworkBuilder b;
  b.add_node({0.0, 0.0});
  b.add_node({100.0, 0.0});
  b.add_node({0.0, 500.0});
  b.add_node({100.0, 500.0});
  b.add_segment(NodeId(0), NodeId(1), 13.9);
  b.add_segment(NodeId(2), NodeId(3), 13.9);
  const RoadNetwork net = b.build();
  const ChEngine ch(net);
  CHTableEngine table(ch);
  const std::vector<NodeId> sources{NodeId(0), NodeId(2)};
  const std::vector<NodeId> targets{NodeId(1), NodeId(3)};
  const std::vector<double> cells = fill(table, sources, targets);
  EXPECT_DOUBLE_EQ(cells[0], 100.0);          // 0 -> 1
  EXPECT_EQ(cells[1], kInfDistance);          // 0 -> 3
  EXPECT_EQ(cells[2], kInfDistance);          // 2 -> 1
  EXPECT_DOUBLE_EQ(cells[3], 100.0);          // 2 -> 3
}

TEST(ChTable, SourceEqualsTargetIsZero) {
  const RoadNetwork net = make_grid(6, 6, 100.0);
  const ChEngine ch(net);
  CHTableEngine table(ch);
  const std::vector<NodeId> nodes{NodeId(0), NodeId(7), NodeId(35)};
  const std::vector<double> cells = fill(table, nodes, nodes);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(cells[i * nodes.size() + i], 0.0) << "diagonal " << i;
  }
}

TEST(ChTable, EmptySpansReturnAnEmptyTable) {
  const RoadNetwork net = make_grid(4, 4, 100.0);
  const ChEngine ch(net);
  CHTableEngine table(ch);
  const std::vector<NodeId> some{NodeId(0), NodeId(5)};
  const std::vector<NodeId> none;
  std::vector<double> empty_out;
  table.table(none, some, empty_out);
  table.table(some, none, empty_out);
  table.table(none, none, empty_out);
  EXPECT_EQ(table.computations(), 3u);
  EXPECT_EQ(table.settled_nodes(), 0u);
}

TEST(ChTable, BoundedFillsKeepTheDijkstraContract) {
  const RoadNetwork net = make_grid(10, 10, 100.0);
  const ChEngine ch(net);
  NodeDistanceOracle oracle(net);
  Rng rng(77);
  const std::vector<NodeId> sources = random_nodes(rng, net, 6);
  const std::vector<NodeId> targets = random_nodes(rng, net, 6);
  // Every finite distance: exact when <= bound, infinite when the bound
  // undercuts it — the same contract the bounded oracle keeps.
  for (const double bound : {250.0, 600.0, 1400.0}) {
    CHTableEngine table(ch);
    const std::vector<double> cells = fill(table, sources, targets, bound);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      for (std::size_t k = 0; k < targets.size(); ++k) {
        const double exact = oracle.distance(sources[i], targets[k]);
        const double cell = cells[i * targets.size() + k];
        if (exact <= bound) {
          EXPECT_DOUBLE_EQ(cell, exact) << "bound " << bound;
        } else {
          EXPECT_EQ(cell, kInfDistance) << "bound " << bound;
        }
      }
    }
  }
}

TEST(ChTable, TightBoundsTerminateSearchesEarly) {
  // The bound must prune both sweeps, not just filter the output: a tight
  // ε-style bound settles far fewer nodes than an unbounded fill.
  const RoadNetwork net = make_grid(30, 30, 100.0);
  const ChEngine ch(net);
  Rng rng(31);
  const std::vector<NodeId> sources = random_nodes(rng, net, 16);
  const std::vector<NodeId> targets = random_nodes(rng, net, 16);
  CHTableEngine unbounded(ch);
  fill(unbounded, sources, targets);
  CHTableEngine bounded(ch);
  fill(bounded, sources, targets, 300.0);
  EXPECT_GT(unbounded.settled_nodes(), 0u);
  EXPECT_LT(bounded.settled_nodes() * 2, unbounded.settled_nodes());
}

TEST(ChTable, DuplicateEndpointsAreDeduplicated) {
  // A `/v1/table` request may repeat a junction in `sources=` or
  // `targets=`. Duplicates must cost nothing extra and every copy of a row
  // must agree.
  const RoadNetwork net = make_grid(8, 8, 120.0);
  const ChEngine ch(net);
  const std::vector<NodeId> uniq_sources{NodeId(0), NodeId(9), NodeId(40),
                                         NodeId(5)};
  const std::vector<NodeId> uniq_targets{NodeId(5), NodeId(63)};
  const std::vector<NodeId> dup_sources{NodeId(0), NodeId(9), NodeId(0),
                                        NodeId(40), NodeId(9), NodeId(5)};
  // Shared junction: NodeId(5) appears among both sources and targets.
  const std::vector<NodeId> dup_targets{NodeId(5), NodeId(63), NodeId(5)};

  CHTableEngine uniq_engine(ch);
  const std::vector<double> uniq = fill(uniq_engine, uniq_sources, uniq_targets);
  CHTableEngine dup_engine(ch);
  const std::vector<double> dup =
      fill(dup_engine, dup_sources, dup_targets, kInfDistance);
  // Duplicated rows and columns fan out from one search per distinct node.
  EXPECT_EQ(dup_engine.settled_nodes(), uniq_engine.settled_nodes());
  const auto uniq_cell = [&](std::size_t i, std::size_t k) {
    return uniq[i * uniq_targets.size() + k];
  };
  const std::size_t src_map[] = {0, 1, 0, 2, 1, 3};
  const std::size_t tgt_map[] = {0, 1, 0};
  for (std::size_t i = 0; i < dup_sources.size(); ++i) {
    for (std::size_t k = 0; k < dup_targets.size(); ++k) {
      EXPECT_EQ(dup[i * dup_targets.size() + k], uniq_cell(src_map[i], tgt_map[k]))
          << "cell (" << i << ", " << k << ")";
    }
  }
}

TEST(ChTable, RejectsWrongOutSizeAndAliasedSpans) {
  const RoadNetwork net = make_grid(4, 4, 100.0);
  const ChEngine ch(net);
  CHTableEngine table(ch);
  const std::vector<NodeId> nodes{NodeId(0), NodeId(1)};
  std::vector<double> wrong(3, 0.0);
  EXPECT_THROW(table.table(nodes, nodes, wrong), PreconditionError);
  // An out span overlapping an input span is the latent scratch-reuse hazard
  // the engine guards against: the fill writes out before reading the node
  // lists. Only the byte ranges matter — the guard fires before any access.
  std::vector<double> cells(4, 0.0);
  const auto* aliased = reinterpret_cast<const NodeId*>(cells.data());
  const std::span<const NodeId> alias_span(aliased, 2);
  EXPECT_THROW(table.table(alias_span, nodes, cells), PreconditionError);
  EXPECT_THROW(table.table(nodes, alias_span, cells), PreconditionError);
}

TEST(ChTable, InvalidNodesAreRejected) {
  const RoadNetwork net = make_grid(3, 3, 100.0);
  const ChEngine ch(net);
  CHTableEngine table(ch);
  const std::vector<NodeId> good{NodeId(0)};
  const std::vector<NodeId> bad{NodeId(99)};
  std::vector<double> out(1, 0.0);
  EXPECT_THROW(table.table(bad, good, out), NotFoundError);
  EXPECT_THROW(table.table(good, bad, out), NotFoundError);
}

TEST(ChTable, CountersTrackFillsAndCacheHits) {
  const RoadNetwork net = make_grid(10, 10, 100.0);
  const ChEngine ch(net);
  CHTableEngine table(ch);
  Rng rng(5);
  const std::vector<NodeId> sources = random_nodes(rng, net, 4);
  const std::vector<NodeId> targets = random_nodes(rng, net, 4);
  fill(table, sources, targets);
  EXPECT_EQ(table.computations(), 1u);
  const std::size_t first_settled = table.settled_nodes();
  EXPECT_GT(first_settled, 0u);
  // A second identical fill answers entirely from the memoized labels.
  fill(table, sources, targets);
  EXPECT_EQ(table.computations(), 2u);
  EXPECT_EQ(table.settled_nodes(), first_settled);
  table.reset_counters();
  EXPECT_EQ(table.computations(), 0u);
  EXPECT_EQ(table.settled_nodes(), 0u);
}

TEST(ChTableConcurrency, PerThreadEnginesOverOneSharedHierarchy) {
  // The documented threading contract: one immutable ChEngine, one
  // CHTableEngine per thread, each filling its own table concurrently.
  const RoadNetwork net = make_grid(15, 15, 100.0);
  const ChEngine ch(net);
  constexpr int kThreads = 4;
  Rng rng(99);
  std::vector<std::vector<NodeId>> sources(kThreads), targets(kThreads);
  std::vector<std::vector<double>> expected(kThreads);
  {
    NodeDistanceOracle oracle(net);
    for (int w = 0; w < kThreads; ++w) {
      sources[w] = random_nodes(rng, net, 12);
      targets[w] = random_nodes(rng, net, 12);
      for (const NodeId s : sources[w]) {
        for (const NodeId t : targets[w]) {
          expected[w].push_back(oracle.distance(s, t));
        }
      }
    }
  }
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> pool;
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&, w] {
      CHTableEngine table(ch);  // per-thread workspace over the shared engine
      got[w] = fill(table, sources[w], targets[w]);
    });
  }
  for (std::thread& th : pool) th.join();
  for (int w = 0; w < kThreads; ++w) {
    ASSERT_EQ(got[w].size(), expected[w].size());
    for (std::size_t i = 0; i < got[w].size(); ++i) {
      EXPECT_DOUBLE_EQ(got[w][i], expected[w][i]) << "thread " << w << " cell " << i;
    }
  }
}

}  // namespace
}  // namespace neat::roadnet
