/**
 * @file
 * asdr_perfbench: the repository benchmark's measuring program.
 *
 *   asdr_perfbench fit --scene Lego --seed N [--fields-dir D]
 *       Fit an Instant-NGP field to a library scene with the quality
 *       preset's trainer and store it under D, keyed by scene, field
 *       seed (N % 4) and steps; a stored field is kept. Fitting is input
 *       generation; no run times it.
 *
 *   asdr_perfbench run --workload W --seed N --seconds T --trace 0|1
 *                      [--fields-dir D] [--trace-out F]
 *       Run one workload on the fitted fields of seed N. The last line of
 *       standard output is the result: {"correct", "attempted", "failed",
 *       "metrics"}. Exit status 1 when any correctness check failed.
 *
 * perfbench/run.py builds this program, fits missing fields and runs it.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "core/presets.hpp"
#include "nerf/serialize.hpp"
#include "nerf/trainer.hpp"
#include "scene/scene_library.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: asdr_perfbench fit --scene S --seed N "
                 "[--fields-dir D]\n"
                 "       asdr_perfbench run --workload W --seed N --seconds T "
                 "--trace 0|1 [--fields-dir D] "
                 "[--trace-out F]\n");
    return 2;
}

/** Fit and store the field of `scene_name` unless it is stored already. */
int
fit(const Options &o, const std::string &scene_name)
{
    const std::string path = fieldPath(o, scene_name);
    if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
        std::fclose(f);
        return 0;
    }
    const asdr::core::ExperimentPreset preset =
        asdr::core::ExperimentPreset::quality();
    asdr::nerf::TrainConfig train = preset.train;
    train.steps = kFitSteps;
    train.seed = fieldSeed(o.seed);
    asdr::nerf::InstantNgpField field(asdr::nerf::NgpModelConfig::fast(),
                                      fieldSeed(o.seed));
    auto scene = asdr::scene::createScene(scene_name);
    const asdr::nerf::TrainReport report =
        asdr::nerf::fitField(field, *scene, train);
    if (!(report.final_loss < 0.5 * report.initial_loss)) {
        std::fprintf(stderr, "fit of %s did not converge (loss %g -> %g)\n",
                     scene_name.c_str(), report.initial_loss,
                     report.final_loss);
        return 1;
    }
    const std::string tmp = path + ".tmp";
    if (!asdr::nerf::saveField(field, tmp) ||
        std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::fprintf(stderr, "could not write %s\n", path.c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    Options o;
    std::string scene;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            o.workload = v;
        else if (k == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            o.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            o.trace = v == "1";
        else if (k == "--fields-dir")
            o.fields_dir = v;
        else if (k == "--trace-out")
            o.trace_out = v;
        else if (k == "--scene")
            scene = v;
        else
            return usage();
    }
    if (o.seconds <= 0.0)
        return usage();
    if (cmd == "fit")
        return scene.empty() ? usage() : fit(o, scene);
    if (cmd != "run")
        return usage();

    Result res;
    try {
        if (o.workload == "render_asdr" || o.workload == "render_baseline")
            runRender(o, res);
        else if (o.workload == "serve_wire")
            runServe(o, res);
        else
            return usage();
    } catch (const std::exception &e) {
        res.attempt();
        res.fail(std::string("run aborted: ") + e.what());
    }
    res.print();
    return res.correct() ? 0 : 1;
}
