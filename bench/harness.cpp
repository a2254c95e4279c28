#include "bench/harness.hpp"

#include <cmath>
#include <iostream>
#include <sstream>

#include "util/isa.hpp"

namespace asdr::bench {

nerf::NgpModelConfig
platformModel(bool edge)
{
    nerf::NgpModelConfig model = nerf::NgpModelConfig::reference();
    if (edge)
        model.grid.log2_table_size = 15; // fits the 2 MB edge Mem Xbars
    return model;
}

PerfScenario
PerfScenario::standard(const std::string &scene, bool edge)
{
    PerfScenario s;
    s.scene_name = scene;
    s.edge = edge;
    s.hw = edge ? sim::AccelConfig::edge() : sim::AccelConfig::server();

    core::ExperimentPreset preset = core::ExperimentPreset::perf();
    scene::SceneInfo info = scene::sceneInfo(scene);
    int w, h;
    preset.resolutionFor(info, w, h);

    s.asdr_render = core::RenderConfig::asdr(w, h, preset.samples_per_ray);
    s.baseline_render =
        core::RenderConfig::baseline(w, h, preset.samples_per_ray);
    s.baseline_render.early_termination = true;
    s.configured = true;
    return s;
}

PerfResult
runPerfScenario(const PerfScenario &scenario)
{
    PerfScenario s = scenario;
    if (!s.configured)
        s = PerfScenario::standard(scenario.scene_name, scenario.edge);

    auto scene = scene::createScene(s.scene_name);
    nerf::ProceduralField field(*scene, platformModel(s.edge));
    nerf::Camera camera = nerf::cameraForScene(
        scene->info(), s.baseline_render.width, s.baseline_render.height);

    PerfResult result;
    result.costs = field.costs();

    // Baseline workload: what the GPU and NeuRex execute.
    core::RenderStats base_stats;
    core::AsdrRenderer(field, s.baseline_render)
        .render(camera, &base_stats);
    result.baseline_profile = base_stats.profile;

    // ASDR workload, streamed through the cycle-level accelerator.
    sim::AsdrAccelerator accel(field.tableSchema(), field.costs(), s.hw,
                               s.edge);
    core::AsdrRenderer(field, s.asdr_render)
        .render(camera, &result.asdr_stats, &accel);
    result.asdr_profile = result.asdr_stats.profile;
    result.asdr = accel.report();

    baseline::GpuSpec gpu_spec = s.edge ? baseline::GpuSpec::xavierNx()
                                        : baseline::GpuSpec::rtx3070();
    result.gpu = baseline::GpuModel(gpu_spec).run(result.baseline_profile,
                                                  result.costs);
    baseline::NeurexConfig nx_cfg = s.edge
                                        ? baseline::NeurexConfig::edge()
                                        : baseline::NeurexConfig::server();
    result.neurex = baseline::NeurexModel(nx_cfg).run(
        result.baseline_profile, result.costs);
    return result;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values)
        acc += std::log(v);
    return std::exp(acc / double(values.size()));
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

JsonLine::JsonLine(const std::string &bench)
    : body_("\"bench\": \"" + jsonEscape(bench) + "\"")
{
    field("isa", isa::name(isa::active()));
}

JsonLine &
JsonLine::field(const std::string &key, const std::string &value)
{
    body_ += ", \"" + jsonEscape(key) + "\": \"" + jsonEscape(value) + "\"";
    return *this;
}

JsonLine &
JsonLine::field(const std::string &key, const char *value)
{
    return field(key, std::string(value));
}

JsonLine &
JsonLine::field(const std::string &key, double value)
{
    std::ostringstream num;
    num << value;
    body_ += ", \"" + jsonEscape(key) + "\": " + num.str();
    return *this;
}

JsonLine &
JsonLine::field(const std::string &key, int value)
{
    body_ += ", \"" + jsonEscape(key) + "\": " + std::to_string(value);
    return *this;
}

void
JsonLine::emit(std::ostream &os) const
{
    os << "{" << body_ << "}\n";
}

void
benchHeader(const std::string &artifact, const std::string &note)
{
    std::cout << "\n################################################\n"
              << "# " << artifact << "\n"
              << "# " << note << "\n"
              << "################################################\n";
}

} // namespace asdr::bench
