/**
 * @file
 * Counter lookup by '.'-joined path ("mem.l1_0.hits") in a stats tree
 * of the form MultiCoreSystem::statsJson() and
 * MemoryHierarchy::statsJson() write: every group is {"counters":
 * {name: value}, "children": {name: group}}.
 */

#ifndef ZCOMP_TESTS_STATS_PATH_HH
#define ZCOMP_TESTS_STATS_PATH_HH

#include <string>

#include "common/json.hh"

namespace zcomp {

/** The counter at @p path under @p tree, or null when absent. */
inline const Json *
statsCounter(const Json &tree, const std::string &path)
{
    const Json *group = &tree;
    size_t start = 0;
    for (size_t dot = path.find('.'); dot != std::string::npos;
         start = dot + 1, dot = path.find('.', start)) {
        const Json *children = group->find("children");
        group = children ? children->find(path.substr(start, dot - start))
                         : nullptr;
        if (!group)
            return nullptr;
    }
    const Json *counters = group->find("counters");
    return counters ? counters->find(path.substr(start)) : nullptr;
}

} // namespace zcomp

#endif // ZCOMP_TESTS_STATS_PATH_HH
