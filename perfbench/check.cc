#include "check.hh"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json.hh"

namespace perfbench {

namespace {

std::string
mismatch(const std::string &key, double got, double want,
         const char *what)
{
    std::ostringstream os;
    os.precision(17);
    os << key << ": got " << got << ", " << what << " " << want;
    return os.str();
}

/** Append one message per key that is missing from got, differs
 *  from want, or is not in want at all. */
void
compare(const Results &got, const Results &want, const char *what,
        std::vector<std::string> &bad)
{
    for (const auto &[key, w] : want) {
        auto it = got.find(key);
        if (it == got.end())
            bad.push_back(key + ": missing (" + what + " has it)");
        else if (it->second != w)
            bad.push_back(mismatch(key, it->second, w, what));
    }
    for (const auto &[key, g] : got) {
        if (!want.count(key))
            bad.push_back(key + ": not in " + what);
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

std::vector<std::string>
ResultCheck::check(const std::string &kind, const Results &r)
{
    std::vector<std::string> bad;
    auto [ref, first] = first_.try_emplace(kind, r);
    if (!first)
        compare(r, ref->second, "first op", bad);
    if (!expected_.empty()) {
        auto exp = expected_.find(kind);
        if (exp == expected_.end())
            bad.push_back("no expected results for op kind " + kind);
        else
            compare(r, exp->second, "expected", bad);
    }
    return bad;
}

Expected
loadExpected(const std::string &path, const std::string &workload)
{
    zcomp::Json root = zcomp::Json::parse(readFile(path));
    const zcomp::Json *w = root.isObject() ? root.find(workload) : nullptr;
    if (!w || !w->isObject())
        throw std::runtime_error(path + " has no entry for " + workload);
    Expected e;
    for (const auto &[kind, values] : w->members()) {
        if (!values.isObject())
            throw std::runtime_error(path + ": " + workload + "/" + kind +
                                     " is not an object");
        Results &r = e[kind];
        for (const auto &[key, v] : values.members()) {
            if (!v.isNumber())
                throw std::runtime_error(path + ": " + workload + "/" +
                                         kind + "/" + key +
                                         " is not a number");
            r[key] = v.asDouble();
        }
    }
    return e;
}

void
storeExpected(const std::string &path, const std::string &workload,
              const Expected &e)
{
    zcomp::Json root = zcomp::Json::object();
    if (std::ifstream(path).good())
        root = zcomp::Json::parse(readFile(path));
    zcomp::Json w = zcomp::Json::object();
    for (const auto &[kind, r] : e) {
        zcomp::Json values = zcomp::Json::object();
        for (const auto &[key, v] : r)
            values[key] = v;
        w[kind] = std::move(values);
    }
    root[workload] = std::move(w);
    std::ofstream out(path);
    out << root.dump(1) << "\n";
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

} // namespace perfbench
