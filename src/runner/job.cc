#include "runner/job.hh"

#include <sstream>

#include "core/gdiff2.hh"
#include "core/gvq.hh"
#include "runner/factory.hh"
#include "util/bits.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

namespace gdiff {
namespace runner {

const char *
jobModeName(JobMode mode)
{
    return mode == JobMode::Profile ? "profile" : "pipeline";
}

JobMode
parseJobMode(const std::string &name)
{
    if (name == "profile")
        return JobMode::Profile;
    if (name == "pipeline")
        return JobMode::Pipeline;
    fatal("unknown job mode '%s' (expected profile|pipeline)",
          name.c_str());
}

void
JobSpec::validate() const
{
    std::string error;
    if (!validateOr(&error))
        fatal("%s", error.c_str());
}

bool
JobSpec::validateOr(std::string *error) const
{
    auto fail = [&](std::string msg) {
        if (error)
            *error = std::move(msg);
        return false;
    };
    // Names first: makeWorkload and the factories fatal() on unknown
    // names, so no spec that fails here may reach a worker.
    if (!workload::knownWorkload(workload))
        return fail("job " + label() + ": unknown workload '" +
                    workload + "'");
    if (mode == JobMode::Profile && !knownPredictor(predictor))
        return fail("job " + label() + ": unknown predictor '" +
                    predictor + "'");
    if (mode == JobMode::Pipeline && !knownScheme(scheme))
        return fail("job " + label() + ": unknown scheme '" + scheme +
                    "'");
    const bool gdiff2 = mode == JobMode::Profile && predictor == "gdiff2";
    const unsigned minOrder = gdiff2 ? core::gdiff2MinOrder : 1;
    const unsigned maxOrder = gdiff2 ? core::gdiff2MaxOrder
                                     : core::maxOrder;
    if (order < minOrder || order > maxOrder) {
        std::ostringstream os;
        os << "job " << label() << ": order " << order
           << " is out of range " << minOrder << ".." << maxOrder;
        return fail(os.str());
    }
    if (tableEntries != 0 && !isPowerOfTwo(tableEntries)) {
        std::ostringstream os;
        os << "job " << label() << ": table size " << tableEntries
           << " is neither 0 (unlimited) nor a power of two";
        return fail(os.str());
    }
    if (instructions == 0) {
        return fail("job " + label() +
                    ": instructions must be > 0 (nothing would be "
                    "measured)");
    }
    if (warmup >= instructions) {
        std::ostringstream os;
        os << "job " << label() << ": warmup (" << warmup
           << ") must be smaller than instructions (" << instructions
           << ")";
        return fail(os.str());
    }
    if (sampleBudget != 0) {
        if (sampleWindow == 0) {
            return fail("job " + label() +
                        ": sample window length must be > 0");
        }
        if (sampleWindow > instructions) {
            std::ostringstream os;
            os << "job " << label() << ": sample window ("
               << sampleWindow
               << " records) is longer than the measured region ("
               << instructions << " records)";
            return fail(os.str());
        }
        if (sampleBudget < sampleWindow) {
            std::ostringstream os;
            os << "job " << label() << ": sample budget ("
               << sampleBudget << ") fits zero windows of "
               << sampleWindow << " records";
            return fail(os.str());
        }
    }
    return true;
}

bool
validateJobs(const std::vector<JobSpec> &jobs, std::string *error)
{
    for (const JobSpec &job : jobs)
        if (!job.validateOr(error))
            return false;
    return true;
}

std::string
JobSpec::key() const
{
    std::ostringstream os;
    os << "mode=" << jobModeName(mode) << " workload=" << workload;
    if (mode == JobMode::Profile)
        os << " predictor=" << predictor;
    else
        os << " scheme=" << scheme;
    os << " order=" << order << " table=" << tableEntries
       << " seed=" << seed << " instructions=" << instructions
       << " warmup=" << warmup;
    // Sampling changes what a job computes, so it is part of the
    // identity — but only when on, keeping every pre-sampling
    // result file joinable.
    if (sampleBudget != 0) {
        os << " sample_budget=" << sampleBudget
           << " sample_window=" << sampleWindow
           << " sample_seed=" << sampleSeed;
    }
    return os.str();
}

std::string
JobSpec::label() const
{
    std::ostringstream os;
    os << workload << '/'
       << (mode == JobMode::Profile ? predictor : scheme);
    os << "[o=" << order << ",s=" << seed << ']';
    return os.str();
}

double
JobResult::metric(const std::string &name, double fallback) const
{
    for (const auto &[k, v] : metrics)
        if (k == name)
            return v;
    return fallback;
}

} // namespace runner
} // namespace gdiff
