/// @file paper_suite.cpp — the paper-suite workload: every registry
/// scenario that builds no fleet, run through Scenario::run +
/// core::render at one thread, plus the oran/fivegcore probe.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/registry.hpp"
#include "core/scenarios.hpp"
#include "fivegcore/rules.hpp"
#include "oran/qos_xapp.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// The scenarios that build a fleet; everything else is the suite.
constexpr std::string_view kFleetScenarios[] = {
    "city-serving",         "fleet-dispatch-ablation",
    "city-serving-sharded", "fleet-resilience-ablation",
    "degraded-fleet-slo",   "continuous-vs-window",
    "overload-ladder",      "priority-mix-sweep"};
constexpr std::size_t kSuiteSize = 25;

struct Suite {
  std::unique_ptr<sixg::core::ScenarioRegistry> registry;
  std::vector<const sixg::core::Scenario*> scenarios;
};

Suite make_suite() {
  Suite suite;
  suite.registry = std::make_unique<sixg::core::ScenarioRegistry>();
  sixg::core::register_paper_scenarios(*suite.registry);
  for (const sixg::core::Scenario* s : suite.registry->list()) {
    if (std::find(std::begin(kFleetScenarios), std::end(kFleetScenarios),
                  s->name) == std::end(kFleetScenarios))
      suite.scenarios.push_back(s);
  }
  return suite;
}

/// Host seconds of one traced pass, per scenario (Scenario::run only)
/// and for all renders together.
struct PassTimes {
  std::map<std::string, double> run_s;
  double render_s = 0.0;
};

PassTimes run_pass(Env& env, const Suite& suite) {
  PassTimes times;
  const int pass = env.spans.begin("pass", 0);
  for (const sixg::core::Scenario* s : suite.scenarios) {
    const std::uint64_t id = env.next_call++;
    SpanGuard call(env.spans, "core.scenario." + s->name, id);
    sixg::core::RunContext ctx;
    ctx.seed = env.options.seed;
    ctx.threads = 1;
    const auto result = s->run(ctx);
    std::string text;
    {
      SpanGuard render(env.spans, "core.render", id);
      text = sixg::core::render(*s, result);
      const double render_s = render.stop();
      const double call_s = call.stop();
      times.render_s += render_s;
      times.run_s[s->name] = call_s - render_s;
      env.call_time(std::string(kPaperSuite) + ' ' + s->name, call_s);
    }
    env.out.call(kPaperSuite, s->name, fnv1a(text), !text.empty(),
                 "empty render");
  }
  env.spans.end(pass);
  return times;
}

void check_suite(Env& env, const Suite& suite) {
  env.out.check("paper-suite selects the 25 non-fleet scenarios",
                suite.scenarios.size() == kSuiteSize);
}

}  // namespace

void paper_end_to_end(Env& env) {
  std::vector<double> setup_s;
  Suite suite;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    Suite candidate = make_suite();
    setup_s.push_back(seconds_since(start));
    if (i == 0) suite = std::move(candidate);
  }
  check_suite(env, suite);
  (void)run_pass(env, suite);  // warm-up, checked like the rest
  const auto pass_s =
      timed_passes(env.options.seconds, 3, [&] { (void)run_pass(env, suite); });
  emit_end_to_end(env, setup_s, pass_s, double(suite.scenarios.size()));
}

void paper_layers(Env& env, Depth depth) {
  const bool full = depth == Depth::kFull;
  const Suite suite = make_suite();
  check_suite(env, suite);

  // Full depth interleaves untraced and traced passes (the tracing
  // overhead); a census pass is traced only.
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::map<std::string, std::vector<double>> run_s;
  std::vector<double> render_s;
  const bool spans_on = env.spans.enabled();
  const auto start = Clock::now();
  while (traced_s.empty() ||
         (full && (traced_s.size() < 3 ||
                   seconds_since(start) < 0.6 * env.options.seconds))) {
    if (full) {
      env.spans.set_enabled(false);
      const auto t0 = Clock::now();
      (void)run_pass(env, suite);
      untraced_s.push_back(seconds_since(t0));
      env.spans.set_enabled(spans_on);
    }
    const auto t0 = Clock::now();
    open_obs_record(kPaperSuite);
    const PassTimes times = run_pass(env, suite);
    (void)close_obs_record();
    traced_s.push_back(seconds_since(t0));
    for (const auto& [name, s] : times.run_s) run_s[name].push_back(s);
    render_s.push_back(times.render_s);
  }

  // Section V-C's QoS xApp, called directly in both table modes with the
  // parameters ablation-cpf uses.
  sixg::oran::QosXApp::WorkloadParams params;
  params.seed = sixg::derive_seed(env.options.seed, 0x90a5);
  std::vector<double> linear_s;
  std::vector<double> context_s;
  for (int rep = 0; rep < (full ? 3 : 1); ++rep) {
    const std::uint64_t id = env.next_call++;
    {
      SpanGuard span(env.spans, "oran.QosXApp::evaluate.linear", id);
      const auto linear = sixg::oran::QosXApp::evaluate(
          sixg::core5g::RuleTable::Mode::kLinearScan, params);
      linear_s.push_back(span.stop());
      env.out.check("oran linear evaluation ran every lookup",
                    linear.lookup_ns.count() == params.lookups);
    }
    {
      SpanGuard span(env.spans, "oran.QosXApp::evaluate.context", id);
      const auto context = sixg::oran::QosXApp::evaluate(
          sixg::core5g::RuleTable::Mode::kContextAware, params);
      context_s.push_back(span.stop());
      env.out.check("oran context-aware evaluation ran every lookup",
                    context.lookup_ns.count() == params.lookups);
    }
  }

  auto& out = env.out;
  out.metric("oran.evaluate_linear_s", median(linear_s), "s");
  out.metric("oran.evaluate_context_s", median(context_s), "s");
  out.metric("fivegcore.lookup_ns",
             median(linear_s) * 1e9 / double(params.lookups), "ns");
  for (const auto& [name, samples] : run_s)
    out.metric("core.scenario." + name + "_s", median(samples), "s");
  out.metric("core.render_s", median(render_s), "s");
  if (full) {
    out.metric("obs.trace_overhead_share",
               median(traced_s) / median(untraced_s) - 1.0, "ratio");
  }
}

}  // namespace perfbench
