#include "service/request.hpp"

#include <cstdio>
#include <sstream>

namespace deft {

namespace {

/// Most errors a single request is allowed to report; masking-and-
/// reparsing is linear per error, so this caps validation at a constant
/// number of passes.
constexpr int kMaxErrors = 5;

/// Extracts the "config: line N: ..." line number from a parse error
/// message; 0 when the message carries no line.
int error_line(const std::string& what) {
  constexpr const char* kPrefix = "config: line ";
  if (what.rfind(kPrefix, 0) != 0) {
    return 0;
  }
  int line = 0;
  if (std::sscanf(what.c_str() + std::string(kPrefix).size(), "%d",
                  &line) != 1) {
    return 0;
  }
  return line;
}

/// Splits into lines (without terminators), preserving line numbering.
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  return text;
}

/// Strips service-level "x_*" keys out of the line set (they are not part
/// of the core config grammar), recording their effects on `out`. The
/// stripped lines are blanked in place so every later error keeps its
/// original line number.
void extract_service_keys(std::vector<std::string>& lines,
                          ValidatedRequest& out) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string stripped = lines[i];
    const auto comment = stripped.find('#');
    if (comment != std::string::npos) {
      stripped.resize(comment);
    }
    const auto eq = stripped.find('=');
    if (eq == std::string::npos) {
      continue;
    }
    auto trim = [](std::string s) {
      const auto b = s.find_first_not_of(" \t\r");
      if (b == std::string::npos) {
        return std::string();
      }
      const auto e = s.find_last_not_of(" \t\r");
      return s.substr(b, e - b + 1);
    };
    const std::string key = trim(stripped.substr(0, eq));
    if (key.rfind("x_", 0) != 0) {
      continue;
    }
    const std::string value = trim(stripped.substr(eq + 1));
    const int line_no = static_cast<int>(i) + 1;
    if (key == "x_chaos") {
      if (value == "throw") {
        out.chaos = ChaosMode::throw_in_worker;
      } else if (!value.empty()) {
        out.errors.push_back(
            {line_no, "x_chaos must be 'throw', got '" + value + "'"});
      }
    } else {
      out.errors.push_back({line_no, "unknown service key '" + key + "'"});
    }
    lines[i].clear();
  }
}

}  // namespace

ValidatedRequest validate_request(const std::string& text,
                                  const RunBudget& budget) {
  ValidatedRequest out;
  if (text.size() > budget.max_request_bytes) {
    out.errors.push_back(
        {0, "request exceeds " + std::to_string(budget.max_request_bytes) +
                " bytes (" + std::to_string(text.size()) + ")"});
    return out;  // oversized input is not handed to the parser at all
  }

  std::vector<std::string> lines = split_lines(text);
  extract_service_keys(lines, out);

  // Collect several parse errors, not just the first: each failing parse
  // reports one line-numbered error; blank that line and re-parse. A
  // message without a line number ends the loop (nothing to mask).
  while (static_cast<int>(out.errors.size()) < kMaxErrors) {
    try {
      out.config = parse_simulation_config(join_lines(lines));
      break;
    } catch (const std::exception& e) {
      const std::string what = e.what();
      const int line = error_line(what);
      out.errors.push_back({line, what});
      if (line <= 0 || line > static_cast<int>(lines.size())) {
        break;
      }
      lines[static_cast<std::size_t>(line) - 1].clear();
    }
  }
  if (!out.ok()) {
    return out;
  }

  // Budget clamp: the run must be cycle-bounded no matter what the
  // request asked for. warmup + measure that alone bust the budget are a
  // rejection (clamping them would silently change the experiment);
  // drain and watchdog are operational tails, so they are clamped.
  SimKnobs& knobs = out.config.knobs;
  const Cycle core_cycles = knobs.warmup + knobs.measure;
  if (core_cycles > budget.max_cycles) {
    out.errors.push_back(
        {0, "warmup + measure = " + std::to_string(core_cycles) +
                " cycles exceeds the per-run budget of " +
                std::to_string(budget.max_cycles)});
    return out;
  }
  const Cycle drain_budget = budget.max_cycles - core_cycles;
  if (knobs.drain_max > drain_budget) {
    knobs.drain_max = drain_budget;
    out.budget_clamped = true;
  }
  if (knobs.watchdog_cycles > budget.max_cycles) {
    knobs.watchdog_cycles = budget.max_cycles;
    out.budget_clamped = true;
  }
  // Thread budget: each engine worker runs its request on its own thread,
  // so a sharded request would add shards - 1 threads beyond --workers.
  // Results are bit-identical for every shard count, so the clamp changes
  // nothing in the row and is not reported as budget_clamped.
  knobs.shards = 1;
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace deft
