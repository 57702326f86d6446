// The scenario DSL's contracts: fail-loudly parsing (unknown sections and
// keys rejected by name, typed values, undefined ${var} and cyclic include
// errors naming their source), the expression grammar, include/override
// merge semantics, arrival-process row shapes, and the serialize round
// trip — parse(serialize(spec)) is the identity on the canonical form.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "scenario/expression.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace xl;
using scenario::ScenarioDocument;
using scenario::ScenarioSpec;
using scenario::SectionReader;

ScenarioSpec parse_text(const std::string& text) {
  return ScenarioSpec::parse(ScenarioDocument::parse_text(text, "mem://test.ini"));
}

/// The message of the std::exception `fn` must throw.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an exception";
  return {};
}

TEST(Scenario, TypedValuesExpressionsAndVarsLower) {
  const ScenarioSpec spec = parse_text(R"(
[scenario]
name = typed
mode = serve

[vars]
workers = 2
period_us = 100

[architecture]
N = 10
K = 50
variant = opt

[datapath]
resolution_bits = 8
crosstalk = false

[effects]
stages = thermal, noise
seed = 0xBADFAB
thermal.dt_us = ${period_us} / 100

[eval]
samples = 8 * (2 + 2)

[arrivals]
process = poisson
rate_per_s = 2 * 2000

[serving]
workers = ${workers}
)");
  EXPECT_EQ(spec.name, "typed");
  EXPECT_EQ(spec.mode, scenario::Mode::kServe);
  EXPECT_EQ(spec.config.architecture.conv_unit_size, 10u);
  EXPECT_EQ(spec.config.architecture.fc_unit_size, 50u);
  EXPECT_EQ(spec.config.architecture.variant, core::Variant::kOpt);
  EXPECT_EQ(spec.config.vdp.resolution_bits, 8u);
  // [datapath].crosstalk drives the legacy Eq. 8 model knob; the effect
  // stage stays on unless the stages list says "nocrosstalk".
  EXPECT_FALSE(spec.config.vdp.model_crosstalk);
  EXPECT_TRUE(spec.config.vdp.effects.crosstalk);
  EXPECT_TRUE(spec.config.vdp.effects.thermal);
  EXPECT_TRUE(spec.config.vdp.effects.noise);
  // Seeds parse as integers, never through the double grammar (2^53 safe).
  EXPECT_EQ(spec.config.vdp.effects.seed, 0xBADFABu);
  EXPECT_DOUBLE_EQ(spec.config.vdp.effects.thermal_stage.dt_us, 1.0);
  EXPECT_EQ(spec.config.functional_samples, 32u);
  EXPECT_EQ(spec.arrivals.process, scenario::ArrivalSpec::Process::kPoisson);
  EXPECT_DOUBLE_EQ(spec.arrivals.rate_per_s, 4000.0);
  EXPECT_EQ(spec.serving.workers, 2u);
}

TEST(Scenario, UnknownSectionRejectedByName) {
  const std::string msg = thrown_message(
      [] { (void)parse_text("[scenaro]\nname = typo\n"); });
  EXPECT_NE(msg.find("unknown section"), std::string::npos) << msg;
  EXPECT_NE(msg.find("scenaro"), std::string::npos) << msg;
}

TEST(Scenario, UnknownKeyRejectedByName) {
  const std::string msg = thrown_message(
      [] { (void)parse_text("[serving]\nworker = 2\n"); });
  EXPECT_NE(msg.find("unknown key"), std::string::npos) << msg;
  EXPECT_NE(msg.find("[serving].worker"), std::string::npos) << msg;
}

TEST(Scenario, TypeMismatchNamesSectionAndKey) {
  const std::string msg = thrown_message(
      [] { (void)parse_text("[serving]\nworkers = banana\n"); });
  EXPECT_NE(msg.find("[serving].workers"), std::string::npos) << msg;
  EXPECT_THROW((void)parse_text("[serving]\nworkers = banana\n"),
               std::invalid_argument);
}

TEST(Scenario, UndefinedVarNamesTheVariable) {
  const std::string msg = thrown_message(
      [] { (void)parse_text("[serving]\nworkers = ${nope}\n"); });
  EXPECT_NE(msg.find("nope"), std::string::npos) << msg;
}

std::string nested(std::size_t depth, const std::string& core) {
  return std::string(depth, '(') + core + std::string(depth, ')');
}

TEST(Scenario, DeeplyNestedExpressionThrowsInsteadOfOverflowing) {
  // 300 000 levels used to recurse the parser off the end of the stack.
  const std::string msg = thrown_message([] {
    (void)parse_text("[datapath]\nresolution_bits = " + nested(300000, "16") + "\n");
  });
  EXPECT_NE(msg.find("[datapath].resolution_bits"), std::string::npos) << msg;
  EXPECT_NE(msg.find("nesting deeper than"), std::string::npos) << msg;
  EXPECT_NE(msg.find("expression '((("), std::string::npos) << msg;
  EXPECT_LT(msg.size(), 1000u) << "the quoted expression must be bounded";

  // One level past the limit throws, through parentheses and unary signs.
  const std::size_t over = scenario::kMaxExpressionDepth + 1;
  EXPECT_THROW((void)scenario::eval_expression(nested(over, "16")),
               std::invalid_argument);
  EXPECT_THROW((void)scenario::eval_expression(std::string(over, '-') + "16"),
               std::invalid_argument);
}

TEST(Scenario, ModeratelyNestedExpressionStillEvaluates) {
  EXPECT_EQ(scenario::eval_expression(nested(scenario::kMaxExpressionDepth, "16")),
            16.0);
  EXPECT_EQ(scenario::eval_expression(nested(40, "2 * (3 + -(-1))")), 8.0);
  const ScenarioSpec spec =
      parse_text("[datapath]\nresolution_bits = " + nested(100, "4 + 4") + "\n");
  EXPECT_EQ(spec.config.vdp.resolution_bits, 8u);
}

TEST(Scenario, FlatMegabyteSumParsesInLinearTime) {
  // 2^21 terms of "1+" (4 MB). Copying the unread text per literal would
  // make this quadratic: minutes instead of milliseconds.
  constexpr std::size_t kTerms = std::size_t{1} << 21;
  std::string sum;
  sum.reserve(2 * kTerms);
  for (std::size_t i = 0; i < kTerms; ++i) sum += i == 0 ? "1" : "+1";
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(scenario::eval_expression(sum), static_cast<double>(kTerms));
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed.count(), 5.0);

  // Literal scanning keeps exponents, hex seeds and operators apart.
  EXPECT_DOUBLE_EQ(scenario::eval_expression("1.5e+3-2E-1"), 1499.8);
  EXPECT_EQ(scenario::eval_expression("0x1e+5"), 35.0);
  EXPECT_EQ(scenario::eval_expression("0xFFFFFFFFFFFFFFFF"),
            static_cast<double>(0xFFFFFFFFFFFFFFFFULL));
}

TEST(Scenario, ExtensionSectionsAdmittedAndReadable) {
  const ScenarioDocument doc = ScenarioDocument::parse_text(
      "[scenario]\nname = ext\n\n[x-sweep]\npitches = 1, 2, 5\nbank = 10\n",
      "mem://ext.ini");
  (void)ScenarioSpec::parse(doc);  // [x-*] never rejected.
  SectionReader sweep(doc, "x-sweep");
  EXPECT_EQ(sweep.get_double_list("pitches", {}).size(), 3u);
  EXPECT_EQ(sweep.get_size("bank", 0), 10u);
  sweep.finish();
}

TEST(Scenario, CyclicIncludeNamesTheChain) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "xl_scenario_cycle_test";
  fs::create_directories(dir);
  std::ofstream(dir / "a.ini") << "include b.ini\n[scenario]\nname = a\n";
  std::ofstream(dir / "b.ini") << "include a.ini\n";
  const std::string msg = thrown_message(
      [&] { (void)ScenarioDocument::parse_file((dir / "a.ini").string()); });
  EXPECT_NE(msg.find("a.ini"), std::string::npos) << msg;
  EXPECT_NE(msg.find("b.ini"), std::string::npos) << msg;
  EXPECT_THROW((void)ScenarioDocument::parse_file((dir / "a.ini").string()),
               std::runtime_error);
  fs::remove_all(dir);
}

TEST(Scenario, IncludeMergesWithOverride) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "xl_scenario_merge_test";
  fs::create_directories(dir);
  std::ofstream(dir / "base.ini") << "[serving]\nworkers = 2\nmax_batch = 4\n";
  std::ofstream(dir / "top.ini")
      << "include base.ini\n[scenario]\nname = top\n[serving]\nworkers = 8\n";
  const ScenarioSpec spec =
      ScenarioSpec::load((dir / "top.ini").string());
  // Later keys override, untouched keys from the include survive.
  EXPECT_EQ(spec.serving.workers, 8u);
  EXPECT_EQ(spec.serving.max_batch, 4u);
  fs::remove_all(dir);
}

TEST(Scenario, ArrivalProcessesShapeRowsIdentically) {
  scenario::ArrivalSpec burst;
  burst.requests = 6;
  EXPECT_EQ(burst.request_rows(8),
            (std::vector<std::size_t>{1, 2, 3, 4, 1, 2}));
  // Poisson emits the same canonical cycle — gaps shape timing only.
  scenario::ArrivalSpec poisson = burst;
  poisson.process = scenario::ArrivalSpec::Process::kPoisson;
  EXPECT_EQ(poisson.request_rows(8), burst.request_rows(8));
  // Rows cap at max_batch, mirroring make_mixed_size_trace.
  EXPECT_EQ(burst.request_rows(2), (std::vector<std::size_t>{1, 2, 2, 2, 1, 2}));
  scenario::ArrivalSpec trace;
  trace.process = scenario::ArrivalSpec::Process::kTrace;
  trace.trace = {1, 9, 2};
  EXPECT_EQ(trace.request_rows(8), (std::vector<std::size_t>{1, 8, 2}));
}

TEST(Scenario, SerializeRoundTripIsIdentity) {
  // A spec touching every section must survive parse -> serialize -> parse
  // with the canonical form reproduced byte for byte (spec equality).
  const ScenarioSpec spec = parse_text(R"(
[scenario]
name = roundtrip
description = full-surface scenario
mode = serve

[vars]
rate = 4000

[architecture]
N = 10
K = 50
n = 50
m = 30
variant = opt

[datapath]
resolution_bits = 8
crosstalk = false

[effects]
stages = fpv, noise, nocrosstalk
seed = 0xBADFAB
fpv.design = conventional
fpv.trim_residual_fraction = 0.08
noise.optical_power_mw = 0.05

[models]
models = lenet5, cnn_cifar10
backends = crosslight:opt

[eval]
samples = 16
train_epochs = 4

[arrivals]
process = poisson
requests = 24
rate_per_s = ${rate}
seed = 7

[serving]
workers = 2
max_batch = 4
deadline_us = 1500
tenants = 2
)");
  const std::string canon = spec.serialize();
  const ScenarioSpec again =
      ScenarioSpec::parse(ScenarioDocument::parse_text(canon, "mem://canon.ini"));
  EXPECT_EQ(again.serialize(), canon);
  EXPECT_EQ(again.name, spec.name);
  EXPECT_EQ(again.mode, spec.mode);
  EXPECT_EQ(again.models, spec.models);
  EXPECT_EQ(again.backends, spec.backends);
  EXPECT_EQ(again.config.vdp.effects.seed, spec.config.vdp.effects.seed);
  EXPECT_FALSE(again.config.vdp.model_crosstalk);
  EXPECT_FALSE(again.config.vdp.effects.crosstalk);
  EXPECT_EQ(again.tenants, 2u);
  EXPECT_DOUBLE_EQ(again.arrivals.rate_per_s, 4000.0);

  // The default-constructed spec round-trips too (the "none" stage-token
  // encoding: no stages but Eq. 8 crosstalk on).
  const ScenarioSpec minimal = parse_text("[scenario]\nname = minimal\n");
  const std::string minimal_canon = minimal.serialize();
  EXPECT_EQ(ScenarioSpec::parse(ScenarioDocument::parse_text(
                                    minimal_canon, "mem://minimal.ini"))
                .serialize(),
            minimal_canon);
}

TEST(Scenario, CorpusScenariosParseValidateAndRoundTrip) {
  // Every committed scenario must load, validate, and survive the round
  // trip; XL_SCENARIO_DIR (or the baked-in source path) locates the corpus.
  const std::vector<std::string> corpus{
      "paper-repro",     "thermal-stress", "noisy-fab",
      "flash-crowd",     "multi-tenant-mixed", "dse-budget-sweep",
      "fleet-4node",     "bench-fig4",     "bench-fig5",
      "quickstart",      "serving-demo"};
  for (const std::string& name : corpus) {
    SCOPED_TRACE(name);
    const ScenarioSpec spec = ScenarioSpec::load(scenario::scenario_path(name));
    spec.validate();
    EXPECT_EQ(spec.name, name);
    const std::string canon = spec.serialize();
    EXPECT_EQ(ScenarioSpec::parse(
                  ScenarioDocument::parse_text(canon, "mem://" + name))
                  .serialize(),
              canon);
  }
}

}  // namespace
