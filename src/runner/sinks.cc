#include "runner/sinks.hh"

#include <algorithm>
#include <cinttypes>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "util/json.hh"
#include "util/logging.hh"

namespace gdiff {
namespace runner {

namespace {

void
sortByIndex(std::vector<JobRecord> &recs)
{
    std::sort(recs.begin(), recs.end(),
              [](const JobRecord &a, const JobRecord &b) {
                  return a.index < b.index;
              });
}

/**
 * RFC 4180 CSV field: quoted (with inner quotes doubled) whenever the
 * text contains a separator, quote, or line break.
 */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

/** Shortest round-trippable decimal form of a double. */
std::string
jsonDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Fetch a numeric member or report which one is bad. */
bool
numberField(const json::Value &obj, const char *key, double &out,
            std::string *error)
{
    const json::Value *v = obj.find(key);
    if (!v || !v->isNumber()) {
        if (error)
            *error = std::string("record: missing or non-numeric "
                                 "field '") +
                     key + "'";
        return false;
    }
    out = v->number;
    return true;
}

} // anonymous namespace

bool
parseRecordJson(const json::Value &record, JobRecord &out,
                std::string *error)
{
    if (!record.isObject()) {
        if (error)
            *error = "record: not an object";
        return false;
    }
    const json::Value *wl = record.find("workload");
    const json::Value *mode = record.find("mode");
    if (!wl || !wl->isString() || !mode || !mode->isString()) {
        if (error)
            *error = "record: needs string 'workload' and 'mode'";
        return false;
    }
    JobSpec spec;
    spec.workload = wl->str;
    if (mode->str == "profile") {
        spec.mode = JobMode::Profile;
        const json::Value *p = record.find("predictor");
        if (!p || !p->isString()) {
            if (error)
                *error = "record: profile record needs 'predictor'";
            return false;
        }
        spec.predictor = p->str;
    } else if (mode->str == "pipeline") {
        spec.mode = JobMode::Pipeline;
        const json::Value *s = record.find("scheme");
        if (!s || !s->isString()) {
            if (error)
                *error = "record: pipeline record needs 'scheme'";
            return false;
        }
        spec.scheme = s->str;
    } else {
        if (error)
            *error = "record: unknown mode '" + mode->str + "'";
        return false;
    }

    double order, table, seed, instructions, warmup, index;
    if (!numberField(record, "order", order, error) ||
        !numberField(record, "table", table, error) ||
        !numberField(record, "seed", seed, error) ||
        !numberField(record, "instructions", instructions, error) ||
        !numberField(record, "warmup", warmup, error) ||
        !numberField(record, "index", index, error))
        return false;
    spec.order = static_cast<unsigned>(order);
    spec.tableEntries = static_cast<uint64_t>(table);
    spec.seed = static_cast<uint64_t>(seed);
    spec.instructions = static_cast<uint64_t>(instructions);
    spec.warmup = static_cast<uint64_t>(warmup);

    // Sample fields appear iff the producing spec sampled(); a budget
    // present without the other two knobs is malformed.
    if (record.find("sample_budget")) {
        double budget, window, sseed;
        if (!numberField(record, "sample_budget", budget, error) ||
            !numberField(record, "sample_window", window, error) ||
            !numberField(record, "sample_seed", sseed, error))
            return false;
        spec.sampleBudget = static_cast<uint64_t>(budget);
        spec.sampleWindow = static_cast<uint64_t>(window);
        spec.sampleSeed = static_cast<uint64_t>(sseed);
    }

    const json::Value *metrics = record.find("metrics");
    if (!metrics || !metrics->isObject()) {
        if (error)
            *error = "record: needs a 'metrics' object";
        return false;
    }
    JobResult result;
    // Document order is insertion order, so the rebuilt metrics list
    // matches the producing job's exactly.
    for (const auto &[name, value] : metrics->object) {
        if (!value.isNumber()) {
            if (error)
                *error =
                    "record: metric '" + name + "' is not a number";
            return false;
        }
        result.metrics.emplace_back(name, value.number);
    }

    out.index = static_cast<size_t>(index);
    out.spec = std::move(spec);
    out.result = std::move(result);
    return true;
}

bool
recoverResults(const std::string &path, std::vector<JobRecord> &out,
               std::string *error)
{
    auto fail = [&](std::string msg) {
        if (error)
            *error = std::move(msg);
        return false;
    };
    out.clear();
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::filesystem::exists(path)
                   ? fail(path + ": cannot open for reading")
                   : true; // nothing committed yet
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    if (in.bad())
        return fail(path + ": read error");

    // Lines up to the last newline are committed; the rest is a torn
    // write and is dropped.
    const size_t committed = text.rfind('\n') + 1; // npos + 1 == 0
    std::vector<JobRecord> recs;
    size_t lineNo = 0;
    for (size_t pos = 0; pos < committed;) {
        const size_t end = text.find('\n', pos);
        ++lineNo;
        json::Value value;
        JobRecord rec;
        std::string why;
        if (!json::parse(std::string_view(text).substr(pos, end - pos),
                         value, &why) ||
            !parseRecordJson(value, rec, &why))
            return fail(formatString("%s: line %zu: %s", path.c_str(),
                                     lineNo, why.c_str()));
        // Keep the timing metadata a full line carries, so the table
        // and CSV of a resumed sweep show what each job cost.
        auto timing = [&](const char *key, double &dst) {
            if (const json::Value *t = value.find(key); t && t->isNumber())
                dst = t->number;
        };
        JobResult &r = rec.result;
        timing("wall_seconds", r.wallSeconds);
        timing("instructions_per_sec", r.instructionsPerSec);
        timing("trace_generate_seconds", r.traceGenerateSeconds);
        timing("obs_fill_seconds", r.obsFillSeconds);
        timing("obs_sim_seconds", r.obsSimSeconds);
        const json::Value *source = value.find("trace_source");
        r.traceReplayed = source && source->str == "replay";
        recs.push_back(std::move(rec));
        pos = end + 1;
    }
    if (committed < text.size()) {
        std::error_code ec;
        std::filesystem::resize_file(path, committed, ec);
        if (ec)
            return fail(path + ": cannot drop the torn final line: " +
                        ec.message());
    }
    out = std::move(recs);
    return true;
}

// --------------------------------------------------- CollectingSink

void
CollectingSink::onJob(const JobRecord &record)
{
    recs.push_back(record);
}

void
CollectingSink::finish()
{
    sortByIndex(recs);
}

// -------------------------------------------------------- TableSink

TableSink::TableSink(std::ostream &os, std::string title)
    : os(os), title(std::move(title))
{}

void
TableSink::onJob(const JobRecord &record)
{
    recs.push_back(record);
}

void
TableSink::finish()
{
    if (recs.empty())
        return;
    sortByIndex(recs);
    stats::Table t(title, "job");
    for (const auto &metric : recs.front().result.metrics)
        t.addColumn(metric.first);
    t.addColumn("Minst/s");
    for (const auto &r : recs) {
        t.beginRow(r.spec.label());
        for (const auto &metric : recs.front().result.metrics)
            t.cellDouble(r.result.metric(metric.first), 4);
        t.cellDouble(r.result.instructionsPerSec / 1e6, 2);
    }
    t.print(os);
}

// ---------------------------------------------------------- CsvSink

CsvSink::CsvSink(const std::string &path) : path(path)
{
    file = std::fopen(path.c_str(), "wb");
    if (!file)
        fatal("cannot create CSV file '%s'", path.c_str());
}

CsvSink::~CsvSink()
{
    if (file)
        std::fclose(file);
}

void
CsvSink::onJob(const JobRecord &record)
{
    recs.push_back(record);
}

void
CsvSink::finish()
{
    GDIFF_ASSERT(file != nullptr, "CsvSink::finish called twice");
    sortByIndex(recs);
    std::fprintf(file, "index,workload,mode,predictor,scheme,order,"
                       "table,seed,instructions,warmup");
    if (!recs.empty())
        for (const auto &metric : recs.front().result.metrics)
            std::fprintf(file, ",%s", csvField(metric.first).c_str());
    std::fprintf(file, ",wall_seconds,instructions_per_sec,"
                       "trace_source,trace_generate_seconds,"
                       "obs_fill_seconds,obs_sim_seconds\n");
    for (const auto &r : recs) {
        const JobSpec &s = r.spec;
        std::fprintf(file,
                     "%zu,%s,%s,%s,%s,%u,%" PRIu64 ",%" PRIu64
                     ",%" PRIu64 ",%" PRIu64,
                     r.index, csvField(s.workload).c_str(),
                     jobModeName(s.mode),
                     s.mode == JobMode::Profile
                         ? csvField(s.predictor).c_str()
                         : "",
                     s.mode == JobMode::Pipeline
                         ? csvField(s.scheme).c_str()
                         : "",
                     s.order, s.tableEntries, s.seed, s.instructions,
                     s.warmup);
        for (const auto &metric : recs.front().result.metrics)
            std::fprintf(
                file, ",%s",
                jsonDouble(r.result.metric(metric.first)).c_str());
        std::fprintf(file, ",%.3f,%.0f,%s,%.3f,%.3f,%.3f\n",
                     r.result.wallSeconds,
                     r.result.instructionsPerSec,
                     r.result.traceReplayed ? "replay" : "generate",
                     r.result.traceGenerateSeconds,
                     r.result.obsFillSeconds,
                     r.result.obsSimSeconds);
    }
    std::fclose(file);
    file = nullptr;
}

// -------------------------------------------------------- JsonlSink

JsonlSink::JsonlSink(const std::string &path, bool append,
                     bool deterministicOnly)
    : deterministicOnly(deterministicOnly)
{
    file = std::fopen(path.c_str(), append ? "ab" : "wb");
    if (!file)
        fatal("cannot open JSON-lines file '%s'", path.c_str());
}

JsonlSink::~JsonlSink()
{
    if (file)
        std::fclose(file);
}

std::string
JsonlSink::deterministicJson(const JobRecord &record)
{
    const JobSpec &s = record.spec;
    std::string out = "{\"workload\":\"" + json::escape(s.workload) +
                      "\",\"mode\":\"" + jobModeName(s.mode) + "\"";
    if (s.mode == JobMode::Profile)
        out += ",\"predictor\":\"" + json::escape(s.predictor) + "\"";
    else
        out += ",\"scheme\":\"" + json::escape(s.scheme) + "\"";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ",\"order\":%u,\"table\":%" PRIu64
                  ",\"seed\":%" PRIu64 ",\"instructions\":%" PRIu64
                  ",\"warmup\":%" PRIu64,
                  s.order, s.tableEntries, s.seed, s.instructions,
                  s.warmup);
    out += buf;
    // Sampling knobs are part of the deterministic identity exactly
    // when they change what the job computes (mirrors JobSpec::key):
    // full-trace payloads stay byte-identical to the pre-sampling era.
    if (s.sampled()) {
        std::snprintf(buf, sizeof(buf),
                      ",\"sample_budget\":%" PRIu64
                      ",\"sample_window\":%" PRIu64
                      ",\"sample_seed\":%" PRIu64,
                      s.sampleBudget, s.sampleWindow, s.sampleSeed);
        out += buf;
    }
    std::snprintf(buf, sizeof(buf), ",\"index\":%zu", record.index);
    out += buf;
    out += ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, value] : record.result.metrics) {
        if (!first)
            out += ',';
        first = false;
        out += '"' + json::escape(name) + "\":" + jsonDouble(value);
    }
    out += "}}";
    return out;
}

void
JsonlSink::onJob(const JobRecord &record)
{
    GDIFF_ASSERT(file != nullptr, "JsonlSink used after finish");
    std::string det = deterministicJson(record);
    if (deterministicOnly) {
        std::fprintf(file, "%s\n", det.c_str());
        std::fflush(file);
        return;
    }
    // Timing metadata (including whether the trace cache served this
    // job) rides outside the deterministic payload: the closing brace
    // is reopened so the line stays one JSON object.
    det.pop_back();
    std::fprintf(file,
                 "%s,\"wall_seconds\":%.6f,"
                 "\"instructions_per_sec\":%.0f,"
                 "\"trace_source\":\"%s\","
                 "\"trace_generate_seconds\":%.6f,"
                 "\"obs_fill_seconds\":%.6f,"
                 "\"obs_sim_seconds\":%.6f}\n",
                 det.c_str(), record.result.wallSeconds,
                 record.result.instructionsPerSec,
                 record.result.traceReplayed ? "replay" : "generate",
                 record.result.traceGenerateSeconds,
                 record.result.obsFillSeconds,
                 record.result.obsSimSeconds);
    std::fflush(file);
}

void
JsonlSink::finish()
{
    if (file) {
        std::fclose(file);
        file = nullptr;
    }
}

} // namespace runner
} // namespace gdiff
