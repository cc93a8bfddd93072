#include "logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace gdiff {

namespace {

bool quiet_logging = false;

void
printTagged(const char *tag, const char *fmt, std::va_list ap)
{
    std::string msg = vformatString(fmt, ap);
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
}

} // anonymous namespace

std::string
vformatString(const char *fmt, std::va_list ap)
{
    std::va_list ap_copy;
    va_copy(ap_copy, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (n < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(n));
}

std::string
formatString(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vformatString(fmt, ap);
    va_end(ap);
    return s;
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    printTagged("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    printTagged("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (quiet_logging)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    printTagged("warn", fmt, ap);
    va_end(ap);
}

void
setQuietLogging(bool quiet)
{
    quiet_logging = quiet;
}

bool
quietLogging()
{
    return quiet_logging;
}

} // namespace gdiff
