// Option-schema tests (analysis/ops): kinds, ranges, caps, model
// applicability and the argv -> key mapping. The validator reads JSON that
// arrives from a socket, so bench/smoke.cmake reruns this suite under
// ASan+UBSan.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/ops.hpp"
#include "analysis/profile_io.hpp"
#include "netlist/generators.hpp"

namespace dp::analysis::ops {
namespace {

using obs::JsonValue;

JsonValue parse(const std::string& text) { return JsonValue::parse(text); }

/// The message of the OptionError `f` throws; fails the test if none.
template <typename F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const OptionError& e) {
    return e.what();
  }
  ADD_FAILURE() << "no OptionError";
  return "";
}

JsonValue argv(std::optional<Op> op, const std::vector<std::string>& args,
               std::vector<std::string>* positionals = nullptr) {
  std::vector<std::string> ignored;
  return argv_options(op ? &schema(*op) : nullptr, args,
                      positionals ? positionals : &ignored);
}

TEST(OpsSchemaTest, DefaultsMatchTheEngineDefaults) {
  const AnalyzeRequest req(validate(Op::Analyze, JsonValue()));
  const AnalysisOptions a;
  const HybridOptions h;
  EXPECT_EQ(req.model, Model::Sa);
  EXPECT_TRUE(req.persist);
  EXPECT_EQ(req.analysis.collapse, a.collapse);
  EXPECT_EQ(req.analysis.jobs, a.jobs);
  EXPECT_EQ(req.analysis.sampling.target_count, a.sampling.target_count);
  EXPECT_EQ(req.analysis.sampling.theta, a.sampling.theta);
  EXPECT_EQ(req.analysis.sampling.seed, a.sampling.seed);
  EXPECT_EQ(req.hybrid.prefilter_patterns, h.prefilter_patterns);
  EXPECT_EQ(req.hybrid.prefilter_seed, h.prefilter_seed);

  const netlist::Circuit c17 = netlist::make_benchmark("c17");
  EXPECT_EQ(req.cache_key(c17), profile_cache_key(c17, "sa", a));
  const AnalyzeRequest bf(validate(Op::Analyze, parse(R"({"model":"bf.or"})")));
  EXPECT_EQ(bf.cache_key(c17), profile_cache_key(c17, "bf.or", a));

  // Every op accepts an absent and an empty options object.
  for (Op op : {Op::Analyze, Op::NDetect, Op::Grade, Op::Sleep, Op::Report,
                Op::Atpg}) {
    EXPECT_NO_THROW(validate(op, JsonValue()));
    EXPECT_NO_THROW(validate(op, JsonValue::object()));
  }
  EXPECT_EQ(validate(Op::Atpg, JsonValue()).count("prefilter_patterns"), 1024u);
  EXPECT_EQ(validate(Op::Report, JsonValue()).count("prefilter_patterns"),
            4096u);
}

TEST(OpsSchemaTest, CountTakesOnlyNonNegativeIntegerLiterals) {
  for (const char* bad : {"2.5", "1e300", "18446744073709551616", "-1",
                          "\"5\"", "true", "null", "[1]"}) {
    const std::string msg = error_of([&] {
      validate(Op::Grade, parse(std::string(R"({"patterns":)") + bad + "}"));
    });
    EXPECT_NE(msg.find("'patterns' must be a non-negative integer"),
              std::string::npos)
        << bad << ": " << msg;
  }
  const Options o =
      validate(Op::Grade, parse(R"({"patterns":0,"seed":9007199254740993})"));
  EXPECT_EQ(o.count("patterns"), 0u);
  EXPECT_EQ(o.count("seed"), 9007199254740993u);  // beyond 2^53, exact
  EXPECT_TRUE(o.given("seed"));
  EXPECT_FALSE(o.given("collapse"));
}

TEST(OpsSchemaTest, BoolNumberAndTextKinds) {
  for (const char* bad : {"1", "\"true\"", "null"}) {
    EXPECT_NE(error_of([&] {
                validate(Op::Grade,
                         parse(std::string(R"({"collapse":)") + bad + "}"));
              }).find("'collapse' must be a boolean"),
              std::string::npos)
        << bad;
  }
  EXPECT_NE(error_of([&] {
              validate(Op::Analyze,
                       parse(R"({"model":"bf.and","bridge_theta":"0.5"})"));
            }).find("'bridge_theta' must be a number"),
            std::string::npos);
  // An integer literal is a number too.
  EXPECT_EQ(validate(Op::Analyze,
                     parse(R"({"model":"bf.and","bridge_theta":2})"))
                .number("bridge_theta"),
            2.0);
  EXPECT_NE(error_of([&] {
              validate(Op::Atpg, parse(R"({"ndetect_json":5})"));
            }).find("'ndetect_json' must be a string"),
            std::string::npos);
  for (const char* bad : {R"({"model":"bf"})", R"({"model":1})"}) {
    EXPECT_NE(error_of([&] { validate(Op::Analyze, parse(bad)); })
                  .find("'model' must be sa, hybrid, bf.and or bf.or"),
              std::string::npos)
        << bad;
  }
  EXPECT_NE(error_of([&] { validate(Op::Analyze, parse("[]")); })
                .find("'options' must be an object"),
            std::string::npos);
}

TEST(OpsSchemaTest, ThetaMustBePositive) {
  for (const char* theta : {"0", "-1", "-0.0", "0.0"}) {
    EXPECT_NE(error_of([&] {
                validate(Op::Analyze,
                         parse(std::string(R"({"model":"bf.and","bridge_theta":)") +
                               theta + "}"));
              }).find("'bridge_theta' must be > 0"),
              std::string::npos)
        << theta;
  }
  EXPECT_EQ(validate(Op::Analyze,
                     parse(R"({"model":"bf.or","bridge_theta":1e-9})"))
                .number("bridge_theta"),
            1e-9);
}

TEST(OpsSchemaTest, CapsClampInsteadOfRejecting) {
  const Options o = validate(Op::NDetect, parse(R"({"jobs":100000})"));
  EXPECT_EQ(o.count("jobs"), hardware_threads());
  EXPECT_EQ(validate(Op::Analyze, parse(R"({"jobs":0})")).count("jobs"), 0u);
  EXPECT_EQ(validate(Op::Sleep, parse(R"({"ms":99999})")).count("ms"),
            10'000u);
}

TEST(OpsSchemaTest, UnknownAndNonApplicableKeysNameTheKey) {
  EXPECT_NE(error_of([&] { validate(Op::Analyze, parse(R"({"colapse":true})")); })
                .find("unknown option 'colapse'"),
            std::string::npos);
  // A key of another op is unknown here.
  EXPECT_NE(error_of([&] { validate(Op::Grade, parse(R"({"n":2})")); })
                .find("'n'"),
            std::string::npos);

  struct Case {
    const char* json;
    const char* key;
  };
  for (const Case& c : {Case{R"({"model":"sa","bridge_count":5})", "bridge_count"},
                        Case{R"({"model":"bf.or","collapse":false})", "collapse"},
                        Case{R"({"model":"hybrid","persist":false})", "persist"},
                        Case{R"({"prefilter_patterns":5})", "prefilter_patterns"},
                        Case{R"({"model":"bf.and","prefilter_seed":5})",
                             "prefilter_seed"}}) {
    std::string key;
    try {
      validate(Op::Analyze, parse(c.json));
    } catch (const OptionError& e) {
      key = e.key();
      EXPECT_NE(std::string(e.what()).find("does not apply to model"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(key, c.key) << c.json;
  }

  // A front end that fixes the model narrows what "model" may name.
  EXPECT_NE(error_of([&] {
              validate(Op::Analyze, parse(R"({"model":"bf.and"})"),
                       mask(Model::Sa) | mask(Model::Hybrid));
            }).find("'model' must be sa or hybrid"),
            std::string::npos);
  EXPECT_EQ(validate(Op::Analyze, JsonValue(), mask(Model::BfOr)).model(),
            Model::BfOr);
  EXPECT_NE(error_of([&] { validate(Op::Report, parse(R"({"model":"bf.or"})")); })
                .find("'model' must be sa or hybrid"),
            std::string::npos);
}

TEST(OpsArgvTest, FlagsMapToKeys) {
  std::vector<std::string> pos;
  const JsonValue o = argv(
      Op::Analyze,
      {"sa", "--bridge-count", "500", "c17", "--no-collapse", "--model",
       "hybrid"},
      &pos);
  EXPECT_EQ(pos, (std::vector<std::string>{"sa", "c17"}));
  EXPECT_EQ(o.at("bridge_count").kind(), JsonValue::Kind::Int);
  EXPECT_EQ(o.at("bridge_count").as_int(), 500);
  EXPECT_FALSE(o.at("collapse").as_bool());
  EXPECT_EQ(o.at("model").as_string(), "hybrid");

  // Underscores become dashes; every op's rows are reachable.
  EXPECT_EQ(argv(Op::Report, {"--prefilter-patterns", "7"})
                .at("prefilter_patterns")
                .as_int(),
            7);
  EXPECT_TRUE(argv(Op::Grade, {"--no-drop-detected"}).contains("drop_detected"));
  EXPECT_TRUE(argv(Op::NDetect, {"--no-topup", "--n", "2"}).contains("n"));
  EXPECT_TRUE(argv(Op::Sleep, {"--ms", "1"}).contains("ms"));
  EXPECT_TRUE(argv(Op::Atpg, {"--ndetect-json", "x.json"}).contains("ndetect_json"));
}

TEST(OpsArgvTest, BoolRowsAreSpelledAsTheFlagThatFlipsTheDefault) {
  constexpr Row kRows[] = {{"collapse", Kind::Bool, 1},
                           {"quiet", Kind::Bool, 0}};
  const Schema tool{"tool", kRows};
  std::vector<std::string> pos;
  const JsonValue o = argv_options(&tool, {"--no-collapse", "--quiet"}, &pos);
  EXPECT_FALSE(o.at("collapse").as_bool());
  EXPECT_TRUE(o.at("quiet").as_bool());
  // The spelling that would restate the default is no flag.
  for (const char* same : {"--collapse", "--no-quiet"}) {
    EXPECT_EQ(error_of([&] { argv_options(&tool, {same}, &pos); }),
              std::string("unexpected argument '") + same + "'");
  }
}

TEST(OpsArgvTest, RequestOnlyRowsAreNoFlags) {
  for (const char* flag : {"--persist", "--no-persist", "--bridge-theta",
                           "--bridge-seed", "--prefilter-seed"}) {
    EXPECT_EQ(error_of([&] { argv(Op::Analyze, {flag, "1"}); }),
              std::string("unexpected argument '") + flag + "'");
  }
  // The rows still exist for served requests.
  EXPECT_EQ(validate(Op::Analyze,
                     parse(R"({"model":"bf.and","bridge_seed":3})"))
                .count("bridge_seed"),
            3u);
}

TEST(OpsArgvTest, ValuesKeepTheirJsonKindForTheValidator) {
  // "--jobs 2.5" is judged exactly like "jobs": 2.5.
  const JsonValue half = argv(Op::Analyze, {"--jobs", "2.5"});
  EXPECT_EQ(half.at("jobs").kind(), JsonValue::Kind::Double);
  EXPECT_NE(error_of([&] { validate(Op::Analyze, half); })
                .find("'jobs' must be a non-negative integer"),
            std::string::npos);
  const JsonValue abc =
      argv(Op::Analyze, {"--bridge-count", "abc", "--model", "bf.and"});
  EXPECT_EQ(abc.at("bridge_count").as_string(), "abc");
  EXPECT_NE(error_of([&] { validate(Op::Analyze, abc); })
                .find("'bridge_count' must be a non-negative integer"),
            std::string::npos);
  // Text rows keep the raw token, even when it reads as a number.
  EXPECT_EQ(argv(Op::Atpg, {"--ndetect-json", "42"}).at("ndetect_json").kind(),
            JsonValue::Kind::String);
  // A value may start with '-': the range check, not the tokenizer,
  // rejects it.
  EXPECT_EQ(argv(Op::Analyze, {"--jobs", "-1"}).at("jobs").as_int(), -1);
}

TEST(OpsArgvTest, UnknownFlagsAreUnexpectedArguments) {
  EXPECT_EQ(error_of([&] { argv(Op::Analyze, {"--ful"}); }),
            "unexpected argument '--ful'");
  EXPECT_EQ(error_of([&] { argv(Op::Analyze, {"-j"}); }),
            "unexpected argument '-j'");
  EXPECT_EQ(error_of([&] { argv(Op::Analyze, {"--bridge_count", "5"}); }),
            "unexpected argument '--bridge_count'");
  EXPECT_EQ(error_of([&] { argv(Op::Analyze, {"--no-jobs"}); }),
            "unexpected argument '--no-jobs'");
  EXPECT_EQ(error_of([&] { argv(Op::Analyze, {"--collapse"}); }),
            "unexpected argument '--collapse'");
  EXPECT_EQ(error_of([&] { argv(std::nullopt, {"c17", "--jobs", "3"}); }),
            "unexpected argument '--jobs'");
  EXPECT_EQ(error_of([&] { argv(Op::Analyze, {"--jobs"}); }),
            "--jobs requires a value");
  // Retired spellings are rejected, naming their replacement where the op
  // has it.
  EXPECT_EQ(error_of([&] { argv(Op::Analyze, {"--full"}); }),
            "unexpected argument '--full' (now spelled --no-collapse)");
  EXPECT_EQ(error_of([&] { argv(Op::Analyze, {"--count", "5"}); }),
            "unexpected argument '--count' (now spelled --bridge-count N)");
  EXPECT_EQ(error_of([&] { argv(Op::Report, {"--hybrid"}); }),
            "unexpected argument '--hybrid' (now spelled --model hybrid)");
  EXPECT_EQ(error_of([&] { argv(Op::Atpg, {"--full"}); }),
            "unexpected argument '--full'");
}

TEST(OpsArgvTest, UsageListsTheApplicableRows) {
  const Schema& analyze = schema(Op::Analyze);
  const std::string sa =
      usage(analyze, mask(Model::Sa) | mask(Model::Hybrid));
  EXPECT_NE(sa.find("--model M"), std::string::npos);
  EXPECT_NE(sa.find("--no-collapse"), std::string::npos);
  EXPECT_NE(sa.find("--prefilter-patterns N"), std::string::npos);
  EXPECT_EQ(sa.find("--bridge-count"), std::string::npos);
  EXPECT_EQ(sa.find("--prefilter-seed"), std::string::npos);
  const std::string bf = usage(analyze, mask(Model::BfAnd));
  EXPECT_EQ(bf.find("--model"), std::string::npos);
  EXPECT_NE(bf.find("--bridge-count N"), std::string::npos);
  EXPECT_NE(bf.find("default 1000"), std::string::npos);
  EXPECT_EQ(bf.find("--bridge-theta"), std::string::npos);
  EXPECT_EQ(bf.find("persist"), std::string::npos);
}

}  // namespace
}  // namespace dp::analysis::ops
