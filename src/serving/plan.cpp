#include "serving/plan.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "common/cpu_features.hpp"
#include "common/error.hpp"
#include "io/json.hpp"

namespace venom::serving {

bool EnginePlan::compatible() const {
  return features == cpu_feature_string();
}

bool EnginePlan::apply(Options& opts) const {
  if (!compatible()) return false;
  if (max_batch_tokens > 0) opts.batching.max_batch_tokens = max_batch_tokens;
  if (workers > 0) opts.workers = workers;
  return true;
}

bool EnginePlan::apply(transformer::Encoder& encoder) const {
  if (!compatible()) return false;
  const std::size_t n = std::min(layers.size(), encoder.layer_count());
  for (std::size_t i = 0; i < n; ++i)
    encoder.layer(i).set_weight_dtype(layers[i].dtype);
  return true;
}

void save_engine_plan(const EnginePlan& plan, const std::string& path) {
  std::string out = "{\n  \"format\": \"venom-engine-plan\",\n"
                    "  \"version\": 1,\n  \"model\": \"";
  io::json_escape_to(out, plan.model);
  out += "\",\n  \"features\": \"";
  io::json_escape_to(out, plan.features);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\",\n  \"max_batch_tokens\": %zu,\n  \"workers\": %zu,\n"
                "  \"measured_rps\": %.6g,\n  \"layers\": [",
                plan.max_batch_tokens, plan.workers,
                io::json_finite(plan.measured_rps, "measured_rps"));
  out += buf;
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    out += i == 0 ? "\n    {\"backend\": \"" : ",\n    {\"backend\": \"";
    io::json_escape_to(out, plan.layers[i].backend);
    out += "\", \"dtype\": \"";
    out += ops::to_string(plan.layers[i].dtype);
    out += "\"}";
  }
  out += plan.layers.empty() ? "]\n}\n" : "\n  ]\n}\n";

  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  VENOM_CHECK_MSG(f.good(), "cannot open '" << path << "' for writing");
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
  f.flush();
  VENOM_CHECK_MSG(f.good(), "short write to '" << path << "'");
}

EnginePlan load_engine_plan(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  VENOM_CHECK_MSG(in.good(), "cannot open '" << path << "' for reading");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());

  const io::JsonValue doc = io::parse_json(text, path);
  VENOM_CHECK_MSG(doc.type == io::JsonValue::Type::kObject,
                  "'" << path << "' is not a JSON object");
  VENOM_CHECK_MSG(io::json_string_field(doc, "format", path) ==
                      "venom-engine-plan",
                  "'" << path << "' is not a venom engine plan");
  VENOM_CHECK_MSG(io::json_size_field(doc, "version", path) ==
                      EnginePlan::kVersion,
                  "unsupported engine-plan version in " << path);

  EnginePlan plan;
  plan.model = io::json_string_field(doc, "model", path);
  plan.features = io::json_string_field(doc, "features", path);
  plan.max_batch_tokens = io::json_size_field(doc, "max_batch_tokens", path);
  plan.workers = io::json_size_field(doc, "workers", path);
  plan.measured_rps = io::json_double_field(doc, "measured_rps", path);

  const io::JsonValue* layers = doc.get("layers");
  VENOM_CHECK_MSG(layers != nullptr &&
                      layers->type == io::JsonValue::Type::kArray,
                  "'" << path << "' has no \"layers\" array");
  for (const io::JsonValue& item : layers->array) {
    VENOM_CHECK_MSG(item.type == io::JsonValue::Type::kObject,
                    "'" << path << "' has a non-object layer entry");
    EnginePlanLayer layer;
    layer.backend = io::json_string_field(item, "backend", path);
    const std::string& dtype = io::json_string_field(item, "dtype", path);
    VENOM_CHECK_MSG(ops::dtype_from_string(dtype, layer.dtype),
                    "'" << path << "' layer has unknown dtype \"" << dtype
                        << "\"");
    plan.layers.push_back(std::move(layer));
  }
  return plan;
}

Options options_with_plan(Options opts) {
  if (!opts.plan_path.empty()) load_engine_plan(opts.plan_path).apply(opts);
  return opts;
}

std::shared_ptr<const transformer::Encoder> encoder_with_plan(
    transformer::Encoder encoder, const std::string& plan_path) {
  if (!plan_path.empty()) load_engine_plan(plan_path).apply(encoder);
  return std::make_shared<const transformer::Encoder>(std::move(encoder));
}

}  // namespace venom::serving
