#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "nerf/camera.hpp"
#include "nerf/serialize.hpp"
#include "scene/scene_library.hpp"

namespace perfbench {

using namespace asdr;

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

void
Result::add(const std::string &name, double value, const std::string &unit,
            size_t samples)
{
    metrics_.push_back({name, unit, value, samples});
}

void
Result::fail(const std::string &why)
{
    ++failed_;
    if (failures_.size() < 20)
        failures_.push_back(why);
}

void
Result::print() const
{
    std::string detail = "{\"samples\": {";
    for (size_t i = 0; i < metrics_.size(); ++i)
        detail += (i ? ", " : "") + jsonString(metrics_[i].name) + ": " +
                  std::to_string(metrics_[i].samples);
    detail += "}, \"failures\": [";
    for (size_t i = 0; i < failures_.size(); ++i)
        detail += (i ? ", " : "") + jsonString(failures_[i]);
    detail += "]}";

    std::string line = "{\"correct\": ";
    line += correct() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted_) +
            ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i)
        line += (i ? ", " : "") + jsonString(metrics_[i].name) +
                ": {\"value\": " + jsonNumber(metrics_[i].value) +
                ", \"unit\": " + jsonString(metrics_[i].unit) + "}";
    line += "}}";
    std::printf("%s\n%s\n", detail.c_str(), line.c_str());
    std::fflush(stdout);
}

std::string
fieldPath(const Options &o, const std::string &scene)
{
    return o.fields_dir + "/" + scene + "_seed" +
           std::to_string(fieldSeed(o.seed)) +
           "_steps" + std::to_string(kFitSteps) + ".bin";
}

std::unique_ptr<nerf::InstantNgpField>
loadFitted(const Options &o, const std::string &scene)
{
    // The model shape must match the one `fit` trained; the init seed
    // is irrelevant because loadField overwrites every parameter.
    auto field = std::make_unique<nerf::InstantNgpField>(
        nerf::NgpModelConfig::fast(), fieldSeed(o.seed));
    const std::string path = fieldPath(o, scene);
    if (!nerf::loadField(*field, path))
        throw std::runtime_error("no fitted field at " + path +
                                 " (run `fit` first; random weights "
                                 "are not a valid input)");
    return field;
}

std::vector<net::CameraSpec>
orbitPath(const std::string &scene, int width, int height, int frames,
          uint64_t seed)
{
    const scene::SceneInfo info = scene::sceneInfo(scene);
    const float step = 6.2831853f / float(frames);
    // Golden-ratio hash of the seed: a start angle anywhere on the orbit.
    const double frac = std::fmod(double(seed) * 0.6180339887498949, 1.0);
    std::vector<net::CameraSpec> path;
    for (int f = 0; f < frames; ++f) {
        net::CameraSpec cs;
        cs.pos = nerf::orbitPosition(info, step * (float(f) + float(frac)));
        cs.look_at = info.look_at;
        cs.up = Vec3(0.0f, 1.0f, 0.0f);
        cs.fov_deg = info.fov_deg;
        cs.width = uint16_t(width);
        cs.height = uint16_t(height);
        path.push_back(cs);
    }
    return path;
}

bool
sameBits(const Image &a, const Image &b)
{
    return a.width() == b.width() && a.height() == b.height() &&
           std::equal(a.data().begin(), a.data().end(), b.data().begin(),
                      [](const Vec3 &x, const Vec3 &y) {
                          return std::memcmp(&x, &y, sizeof(Vec3)) == 0;
                      });
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

int
hostThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

} // namespace perfbench
