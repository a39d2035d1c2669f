#include "src/sim/sweep.hh"

#include "src/wload/profile.hh"

namespace kilo::sim
{

std::vector<std::string>
intSuite()
{
    std::vector<std::string> names;
    for (const auto &p : wload::intProfiles())
        names.push_back(p.name);
    return names;
}

std::vector<std::string>
fpSuite()
{
    std::vector<std::string> names;
    for (const auto &p : wload::fpProfiles())
        names.push_back(p.name);
    return names;
}

double
meanIpc(const std::vector<RunResult> &results)
{
    if (results.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : results)
        sum += r.ipc;
    return sum / double(results.size());
}

double
meanMpFraction(const std::vector<RunResult> &results)
{
    if (results.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : results)
        sum += r.snapshot.value("mp_fraction");
    return sum / double(results.size());
}

} // namespace kilo::sim
