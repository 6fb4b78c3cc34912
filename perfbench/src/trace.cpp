#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::vector<double>
selfTimesUs(const std::vector<Span> &spans)
{
    std::vector<std::vector<size_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const int64_t p = spans[i].parent;
        if (p >= 0)
            children[static_cast<size_t>(p)].push_back(i);
    }

    std::vector<double> self(spans.size());
    std::vector<std::pair<double, double>> kids;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        kids.clear();
        for (const size_t c : children[i]) {
            const double lo = std::max(spans[c].startUs, s.startUs);
            const double hi = std::min(spans[c].endUs, s.endUs);
            if (hi > lo)
                kids.emplace_back(lo, hi);
        }
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double run_lo = 0.0, run_hi = 0.0;
        bool open = false;
        for (const auto &[lo, hi] : kids) {
            if (open && lo <= run_hi) {
                run_hi = std::max(run_hi, hi);
                continue;
            }
            if (open)
                covered += run_hi - run_lo;
            run_lo = lo;
            run_hi = hi;
            open = true;
        }
        if (open)
            covered += run_hi - run_lo;
        self[i] = (s.endUs - s.startUs) - covered;
    }
    return self;
}

Tracer::Tracer(int slots, size_t reserve)
    : origin_(std::chrono::steady_clock::now())
{
    if (slots <= 0)
        throw std::invalid_argument("Tracer needs at least one slot");
    slots_.resize(static_cast<size_t>(slots));
    for (Slot &s : slots_)
        s.spans.reserve(reserve);
}

int
Tracer::intern(const std::string &name, const std::string &cat)
{
    for (size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name && cats_[i] == cat)
            return static_cast<int>(i);
    names_.push_back(name);
    cats_.push_back(cat);
    return static_cast<int>(names_.size() - 1);
}

double
Tracer::nowUs() const
{
    const std::chrono::duration<double, std::micro> d =
        std::chrono::steady_clock::now() - origin_;
    return d.count();
}

void
Tracer::begin(int slot, int name, int64_t id)
{
    Slot &s = slots_.at(static_cast<size_t>(slot));
    Span span;
    span.name = name;
    span.id = id;
    span.tid = slot;
    span.parent = s.open.empty() ? -1 : static_cast<int64_t>(s.open.back());
    s.open.push_back(s.spans.size());
    s.spans.push_back(span);
    // Stamp last, so the bookkeeping above is not inside the span.
    s.spans.back().startUs = nowUs();
}

void
Tracer::end(int slot)
{
    const double t = nowUs();
    Slot &s = slots_.at(static_cast<size_t>(slot));
    if (s.open.empty())
        throw std::logic_error("Tracer::end without an open span");
    s.spans[s.open.back()].endUs = t;
    s.open.pop_back();
}

std::vector<Span>
Tracer::spans() const
{
    std::vector<Span> all;
    for (const Slot &s : slots_) {
        const int64_t base = static_cast<int64_t>(all.size());
        for (Span span : s.spans) {
            if (span.parent >= 0)
                span.parent += base;
            all.push_back(span);
        }
    }
    return all;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::vector<Span> all = spans();
    const std::vector<double> self = selfTimesUs(all);
    // Names and categories are the benchmark's own identifiers
    // (letters, digits, '.', '_'), so they need no JSON escaping.
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%lld,\"parent\":%lld,"
                     "\"self_us\":%.3f}},\n",
                     names_[static_cast<size_t>(s.name)].c_str(),
                     cats_[static_cast<size_t>(s.name)].c_str(), s.tid,
                     s.startUs, s.endUs - s.startUs,
                     static_cast<long long>(s.id),
                     static_cast<long long>(s.parent), self[i]);
    }
    // Thread-name metadata closes the array (no trailing comma).
    for (size_t t = 0; t < slots_.size(); ++t)
        std::fprintf(f,
                     "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                     "\"tid\":%zu,\"args\":{\"name\":\"slot %zu\"}}%s\n",
                     t, t, t + 1 < slots_.size() ? "," : "");
    std::fprintf(f, "]}\n");
    const bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
