#include "src/dmi/service_config.h"

#include <charconv>

namespace dmi {
namespace {

// Whole-string decimal parse into T. Empty input, trailing junk, a sign T
// cannot hold and out-of-range values are all rejected (a value that would
// wrap or saturate is a bad value, not a different setting).
template <typename T>
bool ParseNumber(const std::string& value, T* out) {
  const char* end = value.data() + value.size();
  T parsed{};
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  *out = parsed;
  return true;
}

bool ParseBool(const std::string& value, bool* out) {
  if (value == "true" || value == "1" || value == "on") {
    *out = true;
    return true;
  }
  if (value == "false" || value == "0" || value == "off") {
    *out = false;
    return true;
  }
  return false;
}

support::Status BadValue(const std::string& flag, const std::string& value) {
  return support::InvalidArgumentError("flag " + flag + ": bad value '" + value + "'");
}

bool OneOf(const std::string& value, std::initializer_list<const char*> names) {
  for (const char* name : names) {
    if (value == name) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool ServiceConfig::ApplyFlag(const std::string& flag, const std::string& value,
                              support::Status* error) {
  *error = support::Status::Ok();
  if (flag == "--mode") {
    mode = value;
  } else if (flag == "--model") {
    model = value;
  } else if (flag == "--policy") {
    policy = value;
  } else if (flag == "--instability") {
    instability = value;
  } else if (flag == "--seed") {
    if (!ParseNumber(value, &seed)) {
      *error = BadValue(flag, value);
    }
  } else if (flag == "--repeats") {
    if (!ParseNumber(value, &repeats)) {
      *error = BadValue(flag, value);
    }
  } else if (flag == "--step-cap") {
    if (!ParseNumber(value, &step_cap)) {
      *error = BadValue(flag, value);
    }
  } else if (flag == "--workers") {
    if (!ParseNumber(value, &workers)) {
      *error = BadValue(flag, value);
    }
  } else if (flag == "--batch") {
    if (!ParseNumber(value, &batch_size)) {
      *error = BadValue(flag, value);
    }
  } else if (flag == "--pool-apps") {
    if (!ParseBool(value, &pool_apps)) {
      *error = BadValue(flag, value);
    }
  } else if (flag == "--model-dir") {
    model_dir = value;
  } else if (flag == "--app-version") {
    app_version = value;
  } else if (flag == "--flight-recorder") {
    if (!ParseNumber(value, &flight_recorder_events)) {
      *error = BadValue(flag, value);
    }
  } else if (flag == "--max-in-flight") {
    if (!ParseNumber(value, &max_in_flight)) {
      *error = BadValue(flag, value);
    }
  } else if (flag == "--queue") {
    if (!ParseNumber(value, &queue_capacity)) {
      *error = BadValue(flag, value);
    }
  } else if (flag == "--tenant-concurrent") {
    if (!ParseNumber(value, &tenant_max_concurrent)) {
      *error = BadValue(flag, value);
    }
  } else if (flag == "--tenant-tokens") {
    if (!ParseNumber(value, &tenant_token_budget)) {
      *error = BadValue(flag, value);
    }
  } else {
    return false;
  }
  return true;
}

support::Status ServiceConfig::Validate() const {
  if (!OneOf(mode, {"gui", "forest", "dmi"})) {
    return support::InvalidArgumentError("mode: '" + mode +
                                         "' is not one of gui|forest|dmi");
  }
  if (!OneOf(model, {"gpt5", "gpt5min", "mini"})) {
    return support::InvalidArgumentError("model: '" + model +
                                         "' is not one of gpt5|gpt5min|mini");
  }
  if (!policy.empty() && !OneOf(policy, {"none", "typical", "harsh", "hostile"})) {
    return support::InvalidArgumentError(
        "policy: '" + policy + "' is not one of none|typical|harsh|hostile");
  }
  if (!instability.empty() &&
      !OneOf(instability, {"none", "typical", "harsh", "hostile"})) {
    return support::InvalidArgumentError(
        "instability: '" + instability + "' is not one of none|typical|harsh|hostile");
  }
  if (repeats <= 0) {
    return support::InvalidArgumentError("repeats: must be positive");
  }
  if (step_cap <= 0) {
    return support::InvalidArgumentError("step_cap: must be positive");
  }
  if (workers < 0) {
    return support::InvalidArgumentError("workers: must be >= 0 (0 = hardware threads)");
  }
  if (batch_size < 0) {
    return support::InvalidArgumentError("batch_size: must be >= 0 (0 = batching off)");
  }
  if (flight_recorder_events < 0) {
    return support::InvalidArgumentError("flight_recorder_events: must be >= 0");
  }
  if (max_in_flight <= 0) {
    return support::InvalidArgumentError("max_in_flight: must be positive");
  }
  if (queue_capacity < 0) {
    return support::InvalidArgumentError("queue_capacity: must be >= 0");
  }
  if (tenant_max_concurrent < 0) {
    return support::InvalidArgumentError("tenant_max_concurrent: must be >= 0");
  }
  if (tenant_token_budget < 0) {
    return support::InvalidArgumentError("tenant_token_budget: must be >= 0");
  }
  return support::Status::Ok();
}

}  // namespace dmi
