#include "vq/vq_config.h"

#include <vector>

#include "common/text_builder.h"

namespace vqllm::vq {

std::string
VQConfig::notation() const
{
    TextBuilder out;
    out << "VQ<" << vector_size << "," << indexBits() << "," << residuals
        << ">";
    return out.take();
}

VQConfig
quip4()
{
    VQConfig c;
    c.name = "QuiP#-4";
    c.vector_size = 8;
    c.num_entries = 65536;
    c.residuals = 2;
    c.scope = CodebookScope::PerTensor;
    c.lattice = true;
    c.lattice_base_entries = 256;
    return c;
}

VQConfig
aqlm3()
{
    VQConfig c;
    c.name = "AQLM-3";
    c.vector_size = 8;
    c.num_entries = 4096;
    c.residuals = 2;
    c.scope = CodebookScope::PerTensor;
    return c;
}

VQConfig
gptvq2()
{
    VQConfig c;
    c.name = "GPTVQ-2";
    c.vector_size = 4;
    c.num_entries = 256;
    c.residuals = 1;
    c.scope = CodebookScope::PerTile;
    return c;
}

VQConfig
cq4()
{
    VQConfig c;
    c.name = "CQ-4";
    c.vector_size = 2;
    c.num_entries = 256;
    c.residuals = 1;
    c.scope = CodebookScope::PerChannelGroup;
    return c;
}

VQConfig
cq2()
{
    VQConfig c;
    c.name = "CQ-2";
    c.vector_size = 4;
    c.num_entries = 256;
    c.residuals = 1;
    c.scope = CodebookScope::PerChannelGroup;
    return c;
}

const std::vector<VQConfig> &
paperConfigs()
{
    static const std::vector<VQConfig> configs = {
        quip4(), aqlm3(), gptvq2(), cq4(), cq2(),
    };
    return configs;
}

} // namespace vqllm::vq
