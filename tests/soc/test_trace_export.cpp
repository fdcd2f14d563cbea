#include "avd/soc/trace_export.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "avd/obs/json.hpp"
#include "temp_dir.hpp"

namespace avd::soc {
namespace {

TEST(TraceExport, EmptyLogIsValidDocument) {
  const std::string json = to_chrome_trace(EventLog{});
  EXPECT_EQ(json, "{\"traceEvents\":[]}");
}

TEST(TraceExport, EventsCarrySourceThreadAndTimestamp) {
  EventLog log;
  log.record(TimePoint{} + Duration::from_ms(5), "pr-controller", "reconfig");
  log.record(TimePoint{} + Duration::from_ms(7), "vehicle-in-dma", "done");
  const std::string json = to_chrome_trace(log);

  EXPECT_NE(json.find("\"pr-controller\""), std::string::npos);
  EXPECT_NE(json.find("\"vehicle-in-dma\""), std::string::npos);
  EXPECT_NE(json.find("\"reconfig\""), std::string::npos);
  // 5 ms = 5000 us.
  EXPECT_NE(json.find("\"ts\":5000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":7000"), std::string::npos);
}

TEST(TraceExport, SameSourceSharesThread) {
  EventLog log;
  log.record({1}, "a", "x");
  log.record({2}, "a", "y");
  log.record({3}, "b", "z");
  const std::string json = to_chrome_trace(log);
  // Exactly two thread_name metadata entries.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("thread_name", pos)) != std::string::npos) {
    ++count;
    pos += 1;
  }
  EXPECT_EQ(count, 2u);
}

TEST(TraceExport, EscapesSpecialCharacters) {
  EventLog log;
  log.record({0}, "src", "quote \" backslash \\ newline \n end");
  const std::string json = to_chrome_trace(log);
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);  // no raw newline in JSON
}

TEST(TraceExport, ControlCharactersAreEscaped) {
  EventLog log;
  log.record({0}, "src", std::string("tab \t cr \r bell \x01 end"));
  const std::string json = to_chrome_trace(log);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\r"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  for (char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  EXPECT_TRUE(obs::json::valid(json)) << json;
}

TEST(TraceExport, OutputParsesAsJsonWithExpectedShape) {
  EventLog log;
  log.record({1'000'000}, "dma", "burst \"0\" \\ done");
  log.record({2'000'000}, "irq", "raised");
  const std::string text = to_chrome_trace(log);
  const std::optional<obs::json::Value> doc = obs::json::parse(text);
  ASSERT_TRUE(doc.has_value()) << text;

  const obs::json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, obs::json::Value::Type::Array);
  // 2 thread_name metadata + 2 instants.
  ASSERT_EQ(events->array.size(), 4u);
  for (const obs::json::Value& e : events->array) {
    EXPECT_NE(e.find("name"), nullptr);
    EXPECT_NE(e.find("ph"), nullptr);
    EXPECT_NE(e.find("pid"), nullptr);
    EXPECT_NE(e.find("tid"), nullptr);
  }
  const obs::json::Value& burst = events->array[2];
  EXPECT_EQ(burst.find("ph")->string, "i");
  EXPECT_EQ(burst.find("name")->string, "burst \"0\" \\ done");  // round-trip
}

TEST(TraceExport, MergedTraceCombinesSpansAndInstants) {
  EventLog log;
  log.record({3'000'000'000}, "pr-controller", "PR window open");

  // Spans from every instrumented layer, two threads for the same source.
  const std::vector<obs::SpanRecord> spans = {
      {"control_step", "core/control", 1'000, 5'000, 0},
      {"detect_multiscale", "detect/hogsvm", 5'000, 90'000, 0},
      {"detect_multiscale", "detect/hogsvm", 6'000, 80'000, 1},
      {"reconfigure", "soc/reconfig", 90'500, 91'000, 0},
      {"ingest_frame", "runtime/ingest", 200, 900, 2},
  };
  const std::string text = to_chrome_trace(log, spans);
  ASSERT_TRUE(obs::json::valid(text)) << text;
  const obs::json::Value doc = *obs::json::parse(text);
  const obs::json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::size_t complete = 0, instants = 0, thread_names = 0, process_names = 0;
  for (const obs::json::Value& e : events->array) {
    const std::string& ph = e.find("ph")->string;
    const std::string& name = e.find("name")->string;
    if (ph == "X") ++complete;
    if (ph == "i") ++instants;
    if (ph == "M" && name == "thread_name") ++thread_names;
    if (ph == "M" && name == "process_name") ++process_names;
  }
  EXPECT_EQ(complete, spans.size());
  EXPECT_EQ(instants, 1u);
  // 4 distinct sources, one of them split over two recording threads, plus
  // the pr-controller instant row.
  EXPECT_EQ(thread_names, 6u);
  EXPECT_EQ(process_names, 2u);

  // Wall-clock span rows and simulated-time event rows live in separate
  // trace processes.
  const MergedTraceOptions defaults;
  for (const obs::json::Value& e : events->array) {
    const int pid = static_cast<int>(e.find("pid")->number);
    if (e.find("ph")->string == "X") EXPECT_EQ(pid, defaults.span_pid);
    if (e.find("ph")->string == "i") EXPECT_EQ(pid, defaults.event_pid);
  }
}

TEST(TraceExport, MergedTraceOfNothingIsValid) {
  const std::string text = to_chrome_trace(EventLog{}, {});
  EXPECT_TRUE(obs::json::valid(text));
  EXPECT_NE(text.find("process_name"), std::string::npos);
}

TEST(TraceExport, MergedTraceSpanTimestampsKeepNanosecondPrecision) {
  const std::vector<obs::SpanRecord> spans = {
      {"s", "src", 1'234'567, 2'000'001, 0}};
  const std::string text = to_chrome_trace(EventLog{}, spans);
  EXPECT_TRUE(obs::json::valid(text)) << text;
  EXPECT_NE(text.find("\"ts\":1234.567"), std::string::npos) << text;
  EXPECT_NE(text.find("\"dur\":765.434"), std::string::npos) << text;
}

obs::SpanRecord traced_span(const char* name, const char* source,
                            std::uint64_t begin, std::uint64_t end, int thread,
                            std::uint64_t trace, std::uint64_t id,
                            std::uint64_t parent) {
  obs::SpanRecord s;
  s.name = name;
  s.source = source;
  s.begin_ns = begin;
  s.end_ns = end;
  s.thread = thread;
  s.trace_id = trace;
  s.span_id = id;
  s.parent_span_id = parent;
  return s;
}

TEST(TraceExport, TracedSpansCarryLinkageAndNumericArgs) {
  obs::SpanRecord s =
      traced_span("detect_frame", "runtime/detect", 100, 900, 2, 77, 702, 701);
  s.arg_count = 2;
  s.args[0] = {"stream", 1};
  s.args[1] = {"frame", 42};
  const std::string text = to_chrome_trace(EventLog{}, {&s, 1});
  const obs::json::Value doc = *obs::json::parse(text);

  const obs::json::Value* args = nullptr;
  for (const obs::json::Value& e : doc.find("traceEvents")->array)
    if (e.find("ph")->string == "X") args = e.find("args");
  ASSERT_NE(args, nullptr) << text;
  EXPECT_DOUBLE_EQ(args->find("trace_id")->number, 77.0);
  EXPECT_DOUBLE_EQ(args->find("span_id")->number, 702.0);
  EXPECT_DOUBLE_EQ(args->find("parent_span_id")->number, 701.0);
  EXPECT_DOUBLE_EQ(args->find("stream")->number, 1.0);
  EXPECT_DOUBLE_EQ(args->find("frame")->number, 42.0);
}

TEST(TraceExport, UntracedSpanWithoutArgsEmitsNoArgsObject) {
  const std::vector<obs::SpanRecord> spans = {{"s", "src", 0, 10, 0}};
  const std::string text = to_chrome_trace(EventLog{}, spans);
  const obs::json::Value doc = *obs::json::parse(text);
  for (const obs::json::Value& e : doc.find("traceEvents")->array) {
    if (e.find("ph")->string == "X") {
      EXPECT_EQ(e.find("args"), nullptr);
    }
  }
}

TEST(TraceExport, FlowEventsLinkCrossThreadHops) {
  // ingest(t0) -> control(t1) -> detect(t2): three hops, one arc.
  const std::vector<obs::SpanRecord> spans = {
      traced_span("ingest_frame", "runtime/ingest", 0, 10, 0, 9, 91, 0),
      traced_span("control_frame", "runtime/control", 20, 30, 1, 9, 92, 91),
      traced_span("detect_frame", "runtime/detect", 40, 60, 2, 9, 93, 92),
  };
  const std::string text = to_chrome_trace(EventLog{}, spans);
  const obs::json::Value doc = *obs::json::parse(text);

  std::vector<std::string> phases;
  for (const obs::json::Value& e : doc.find("traceEvents")->array) {
    const std::string& ph = e.find("ph")->string;
    if (ph != "s" && ph != "t" && ph != "f") continue;
    phases.push_back(ph);
    EXPECT_DOUBLE_EQ(e.find("id")->number, 9.0);
    if (ph == "f") {
      ASSERT_NE(e.find("bp"), nullptr);  // bind to enclosing slice
      EXPECT_EQ(e.find("bp")->string, "e");
    } else {
      EXPECT_EQ(e.find("bp"), nullptr);
    }
  }
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0], "s");
  EXPECT_EQ(phases[1], "t");
  EXPECT_EQ(phases[2], "f");
}

TEST(TraceExport, SameThreadChildrenAreNotFlowHops) {
  // Root hops to another thread; the nested same-thread child must not add
  // a third anchor to the arc.
  const std::vector<obs::SpanRecord> spans = {
      traced_span("root", "a", 0, 100, 0, 5, 51, 0),
      traced_span("nested", "a", 10, 20, 0, 5, 52, 51),   // same thread
      traced_span("handoff", "b", 50, 90, 1, 5, 53, 51),  // cross thread
  };
  const std::string text = to_chrome_trace(EventLog{}, spans);
  const obs::json::Value doc = *obs::json::parse(text);
  std::size_t flows = 0;
  for (const obs::json::Value& e : doc.find("traceEvents")->array) {
    const std::string& ph = e.find("ph")->string;
    if (ph == "s" || ph == "t" || ph == "f") ++flows;
  }
  EXPECT_EQ(flows, 2u);  // just root ("s") and handoff ("f")
}

TEST(TraceExport, SingleHopTraceDrawsNoArc) {
  // An arc needs two ends: a lone root span emits no flow events at all.
  const std::vector<obs::SpanRecord> spans = {
      traced_span("only", "a", 0, 10, 0, 3, 31, 0)};
  const std::string text = to_chrome_trace(EventLog{}, spans);
  const obs::json::Value doc = *obs::json::parse(text);
  for (const obs::json::Value& e : doc.find("traceEvents")->array) {
    const std::string& ph = e.find("ph")->string;
    EXPECT_TRUE(ph != "s" && ph != "t" && ph != "f") << text;
  }
}

TEST(TraceExport, WritesMergedFile) {
  const auto dir = test::unique_temp_dir("avd_trace_merged");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "m.json").string();
  EventLog log;
  log.record({0}, "src", "event");
  const std::vector<obs::SpanRecord> spans = {{"s", "src", 0, 10, 0}};
  write_chrome_trace(log, spans, path);
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, to_chrome_trace(log, spans));
  std::filesystem::remove_all(dir);
}

TEST(TraceExport, WritesFile) {
  const auto dir = test::unique_temp_dir("avd_trace");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "t.json").string();
  EventLog log;
  log.record({0}, "src", "event");
  write_chrome_trace(log, path);
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, to_chrome_trace(log));
  std::filesystem::remove_all(dir);
}

TEST(TraceExport, WriteToBadPathThrows) {
  EXPECT_THROW(write_chrome_trace(EventLog{}, "/nonexistent-dir/x.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace avd::soc
