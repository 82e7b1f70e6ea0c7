// Unit tests for per-granule lineage (obs/lineage.hpp): exact causal chains
// on a hand-built synthetic trace, the barrier-vs-streaming contract on the
// real workflow (same granule set and chain shape, different overlap).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/lineage.hpp"
#include "obs/trace.hpp"
#include "pipeline/config.hpp"
#include "pipeline/eoml_workflow.hpp"

namespace mfw::obs {
namespace {

// Two granules with exactly known chains:
//   g1: download [0,10] -> ready@10 -> preprocess [30,40] (gap 20) ->
//       inference [40,42] (queue_wait 1)
//   g2: download [5,20] (3 attempts, failed) -> ready@20
void build_synthetic(TraceRecorder& rec) {
  rec.set_enabled(true);
  rec.begin_process("synthetic");
  rec.add_span("download/w0", "download", "d1", 0.0, 10.0,
               {{"granule", "g1"}, {"status", "ok"}, {"attempts", "1"}});
  rec.add_instant("flow/granules", "flow", "granule.ready", 10.0,
                  {{"key", "g1"}});
  rec.add_span("preprocess/node0/w0", "compute", "p1", 30.0, 40.0,
               {{"granule", "g1"}, {"queue_wait_s", "0"}, {"status", "ok"}});
  rec.add_span("inference/node0/w0", "compute", "i1", 40.0, 42.0,
               {{"granule", "g1"}, {"queue_wait_s", "1"}, {"status", "ok"}});
  rec.add_span("download/w1", "download", "d2", 5.0, 20.0,
               {{"granule", "g2"}, {"status", "failed"}, {"attempts", "3"}});
  rec.add_instant("flow/granules", "flow", "granule.ready", 20.0,
                  {{"key", "g2"}});
}

TEST(Lineage, SyntheticChainsAreExact) {
  TraceRecorder rec;
  build_synthetic(rec);
  const auto report = extract_lineage(rec);
  ASSERT_EQ(report.granules.size(), 2u);

  const auto* g1 = report.find("g1");
  ASSERT_NE(g1, nullptr);
  ASSERT_EQ(g1->hops.size(), 4u);
  EXPECT_EQ(g1->hops[0].kind, "download");
  EXPECT_EQ(g1->hops[1].kind, "granule.ready");
  EXPECT_EQ(g1->hops[2].kind, "preprocess");
  EXPECT_EQ(g1->hops[3].kind, "inference");
  // Wait/service split: preprocess waited 20 s (causal gap since ready@10),
  // inference charged its explicit queue_wait_s.
  EXPECT_DOUBLE_EQ(g1->hops[2].wait_s(), 20.0);
  EXPECT_DOUBLE_EQ(g1->hops[2].service_s(), 10.0);
  EXPECT_DOUBLE_EQ(g1->hops[3].wait_s(), 1.0);
  EXPECT_DOUBLE_EQ(g1->latency_s(), 42.0);
  EXPECT_DOUBLE_EQ(g1->service_s, 10.0 + 10.0 + 2.0);
  EXPECT_TRUE(g1->ready);
  EXPECT_FALSE(g1->failed);

  const auto* g2 = report.find("g2");
  ASSERT_NE(g2, nullptr);
  EXPECT_TRUE(g2->failed);
  EXPECT_EQ(g2->hops[0].attempts, 3);

  // Slowest first: g1 (42 s) before g2 (15 s).
  EXPECT_EQ(report.granules[0].granule, "g1");
  EXPECT_EQ(report.find("nope"), nullptr);
  EXPECT_TRUE(report.render_granule("nope").empty());
  EXPECT_NE(report.render_granule("g1").find("preprocess"),
            std::string::npos);
  EXPECT_NE(report.to_json().find("\"mfw.lineage/v1\""), std::string::npos);
}

// The chains the real workflow produces under both scheduling modes: the
// *same* granules travel the *same* kind of chain; only the overlap between
// download and preprocess differs (none under barrier, some under
// streaming). This is the lineage-level statement of the paper's fig. 6.
struct RunLineage {
  std::set<std::string> granules;
  double max_download_end = 0.0;
  double min_preprocess_start = 1e300;
};

RunLineage run_and_extract(const std::string& yaml) {
  auto& rec = TraceRecorder::instance();
  set_globally_enabled(true);
  pipeline::EomlWorkflow workflow(pipeline::EomlConfig::from_yaml_text(yaml));
  workflow.run();
  const auto report = extract_lineage(rec);
  set_globally_enabled(false);
  rec.clear();

  RunLineage out;
  for (const auto& g : report.granules) {
    out.granules.insert(g.granule);
    EXPECT_TRUE(g.ready) << g.granule;
    std::size_t downloads = 0, preprocess = 0, inference = 0;
    for (const auto& hop : g.hops) {
      if (hop.kind == "download") {
        ++downloads;
        out.max_download_end = std::max(out.max_download_end, hop.end);
      } else if (hop.kind == "preprocess") {
        ++preprocess;
        out.min_preprocess_start =
            std::min(out.min_preprocess_start, hop.start);
      } else if (hop.kind == "inference") {
        ++inference;
      }
    }
    // Paper pipeline: a granule is a MOD02/MOD03/MOD06 triplet that is
    // preprocessed once and inferred once.
    EXPECT_EQ(downloads, 3u) << g.granule;
    EXPECT_EQ(preprocess, 1u) << g.granule;
    EXPECT_GE(inference, 1u) << g.granule;
  }
  return out;
}

TEST(Lineage, BarrierAndStreamingShareChainsButNotOverlap) {
  const auto barrier =
      run_and_extract("workflow:\n  max_files: 6\n");
  const auto streaming = run_and_extract(
      "workflow:\n  max_files: 6\n  scheduling: streaming\n");

  ASSERT_FALSE(barrier.granules.empty());
  EXPECT_EQ(barrier.granules, streaming.granules);
  // Barrier: no preprocess task starts until every download has finished.
  EXPECT_GE(barrier.min_preprocess_start, barrier.max_download_end);
  // Streaming: preprocess overlaps the download stage.
  EXPECT_LT(streaming.min_preprocess_start, streaming.max_download_end);
}

}  // namespace
}  // namespace mfw::obs
