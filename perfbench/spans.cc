#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

#include "common/json.hh"

namespace perfbench {

int64_t
nowNs()
{
    // Time zero is the first call, made at the top of main().
    static const auto zero = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - zero)
        .count();
}

int
SpanRecorder::begin(std::string name, int64_t op)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanRecorder::end(int id)
{
    if (!enabled_)
        return;
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("span closed out of order");
    spans_[static_cast<size_t>(id)].endNs = nowNs();
    open_.pop_back();
}

int
SpanRecorder::add(Span s)
{
    if (s.parent >= static_cast<int>(spans_.size()))
        throw std::logic_error("span parent must be added first");
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

int64_t
SpanRecorder::childCoveredNs(int id) const
{
    const Span &p = spans_.at(static_cast<size_t>(id));
    std::vector<std::pair<int64_t, int64_t>> iv;
    // Spans are recorded in start order, so the children of id follow
    // it and end the scan once a span starts after id has ended.
    for (size_t i = static_cast<size_t>(id) + 1; i < spans_.size(); i++) {
        const Span &c = spans_[i];
        if (c.startNs >= p.endNs)
            break;
        if (c.parent != id)
            continue;
        int64_t a = std::max(c.startNs, p.startNs);
        int64_t b = std::min(c.endNs, p.endNs);
        if (b > a)
            iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, reach = p.startNs;
    for (auto [a, b] : iv) {
        a = std::max(a, reach);
        if (b > a) {
            covered += b - a;
            reach = b;
        }
    }
    return covered;
}

double
SpanRecorder::selfSeconds(int id) const
{
    const Span &s = spans_.at(static_cast<size_t>(id));
    return static_cast<double>(s.endNs - s.startNs - childCoveredNs(id)) *
           1e-9;
}

double
SpanRecorder::childCoverage(int id) const
{
    const Span &s = spans_.at(static_cast<size_t>(id));
    int64_t dur = s.endNs - s.startNs;
    return dur > 0 ? static_cast<double>(childCoveredNs(id)) /
                         static_cast<double>(dur)
                   : 1.0;
}

void
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    zcomp::Json events = zcomp::Json::array();
    for (size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        zcomp::Json e = zcomp::Json::object();
        e["name"] = s.name;
        e["ph"] = "X";
        e["pid"] = 1;
        e["tid"] = 1;
        e["ts"] = static_cast<double>(s.startNs) / 1e3;
        e["dur"] = static_cast<double>(s.endNs - s.startNs) / 1e3;
        zcomp::Json args = zcomp::Json::object();
        args["id"] = static_cast<long long>(i);
        args["parent"] = s.parent;
        args["op"] = static_cast<long long>(s.op);
        args["self_s"] = selfSeconds(static_cast<int>(i));
        e["args"] = std::move(args);
        events.push(std::move(e));
    }
    zcomp::Json root = zcomp::Json::object();
    root["traceEvents"] = std::move(events);
    root["displayTimeUnit"] = "ms";
    std::ofstream out(path);
    out << root.dump() << "\n";
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
}

} // namespace perfbench
