#include "serving/policy.h"

namespace vqllm::serving {

const char *
policyKindName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::FCFS:
        return "fcfs";
      case PolicyKind::Priority:
        return "priority";
      case PolicyKind::EDF:
        return "edf";
    }
    return "?";
}

bool
parsePolicyKind(const std::string &token, PolicyKind *out)
{
    if (token == "fcfs")
        *out = PolicyKind::FCFS;
    else if (token == "priority")
        *out = PolicyKind::Priority;
    else if (token == "edf")
        *out = PolicyKind::EDF;
    else
        return false;
    return true;
}

} // namespace vqllm::serving
