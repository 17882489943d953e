#include "common/config.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>

namespace nocdvfs::common {

namespace {

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

}  // namespace

void Config::declare(const std::string& key, const std::string& default_value,
                     const std::string& help) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    entries_.emplace(key, Entry{default_value, help, false});
  } else {
    it->second.help = help;
    if (!it->second.assigned) it->second.value = default_value;
  }
}

void Config::declare_int(const std::string& key, std::int64_t default_value,
                         const std::string& help) {
  declare(key, std::to_string(default_value), help);
}

void Config::declare_double(const std::string& key, double default_value,
                            const std::string& help) {
  std::ostringstream os;
  os << default_value;
  declare(key, os.str(), help);
}

void Config::declare_bool(const std::string& key, bool default_value, const std::string& help) {
  declare(key, default_value ? "true" : "false", help);
}

void Config::set(const std::string& key, const std::string& value) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    throw std::out_of_range("Config: undeclared key '" + key + "'");
  }
  it->second.value = value;
  it->second.assigned = true;
}

void Config::parse_assignment(const std::string& token) {
  const auto eq = token.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument("Config: expected key=value, got '" + token + "'");
  }
  const std::string key = trim(token.substr(0, eq));
  const std::string value = trim(token.substr(eq + 1));
  if (!contains(key)) {
    throw std::invalid_argument("Config: unknown key '" + key + "'");
  }
  set(key, value);
}

void Config::parse_args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) parse_assignment(argv[i]);
}

bool Config::contains(const std::string& key) const { return entries_.count(key) != 0; }

bool Config::was_set(const std::string& key) const {
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.assigned;
}

const Config::Entry& Config::entry(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    throw std::out_of_range("Config: undeclared key '" + key + "'");
  }
  return it->second;
}

std::string Config::get_string(const std::string& key) const { return entry(key).value; }

std::int64_t Config::get_int(const std::string& key) const {
  const std::string& v = entry(key).value;
  std::int64_t out = 0;
  const auto* begin = v.data();
  const auto* end = v.data() + v.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("Config: key '" + key + "' value '" + v + "' is not an integer");
  }
  return out;
}

std::uint64_t Config::get_uint(const std::string& key) const {
  const std::int64_t v = get_int(key);
  if (v < 0) {
    throw std::invalid_argument("Config: key '" + key + "' value '" + entry(key).value +
                                "' must be >= 0");
  }
  return static_cast<std::uint64_t>(v);
}

double Config::get_double(const std::string& key) const {
  const std::string& v = entry(key).value;
  try {
    std::size_t pos = 0;
    const double out = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing characters");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("Config: key '" + key + "' value '" + v + "' is not a number");
  }
}

bool Config::get_bool(const std::string& key) const {
  const std::string& v = entry(key).value;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("Config: key '" + key + "' value '" + v + "' is not a boolean");
}

std::vector<double> Config::get_double_list(const std::string& key) const {
  const std::string& v = entry(key).value;
  std::vector<double> out;
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item = trim(item);
    if (item.empty()) continue;
    try {
      out.push_back(std::stod(item));
    } catch (const std::exception&) {
      throw std::invalid_argument("Config: key '" + key + "' element '" + item +
                                  "' is not a number");
    }
  }
  return out;
}

std::vector<std::string> Config::summary_lines() const {
  std::vector<std::string> lines;
  lines.reserve(entries_.size());
  for (const auto& [key, e] : entries_) {
    std::ostringstream os;
    os << key << " = " << e.value;
    if (!e.help.empty()) os << "    # " << e.help;
    lines.push_back(os.str());
  }
  return lines;
}

std::vector<std::pair<std::string, std::string>> Config::kv_pairs() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) out.emplace_back(key, e.value);
  return out;
}

}  // namespace nocdvfs::common
