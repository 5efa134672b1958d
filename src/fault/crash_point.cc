#include "fault/crash_point.h"

#include <algorithm>
#include <cstdlib>

namespace sherman::fault {

namespace {

// Function-local statics: safe to touch from static initializers in any
// translation unit (initialized on first use).
std::vector<std::string>& SiteTable() {
  static std::vector<std::string>* table = new std::vector<std::string>();
  return *table;
}

}  // namespace

int RegisterCrashSite(const char* name) {
  std::vector<std::string>& table = SiteTable();
  for (size_t i = 0; i < table.size(); i++) {
    if (table[i] == name) return static_cast<int>(i);
  }
  table.emplace_back(name);
  return static_cast<int>(table.size() - 1);
}

std::vector<std::string> CrashSiteNames() {
  std::vector<std::string> names = SiteTable();
  std::sort(names.begin(), names.end());
  return names;
}

int CrashSiteId(const std::string& name) {
  const std::vector<std::string>& table = SiteTable();
  for (size_t i = 0; i < table.size(); i++) {
    if (table[i] == name) return static_cast<int>(i);
  }
  return -1;
}

CrashInjector& Injector() {
  static CrashInjector* injector = new CrashInjector();
  return *injector;
}

void CrashInjector::Arm(int site, uint32_t nth, int victim_cs) {
  armed_ = true;
  fired_ = false;
  site_ = site;
  nth_ = nth == 0 ? 1 : nth;
  hits_ = 0;
  victim_cs_ = victim_cs;
}

void CrashInjector::Arm(const std::string& site_name, uint32_t nth,
                        int victim_cs) {
  Arm(CrashSiteId(site_name), nth, victim_cs);
}

bool CrashInjector::ArmFromEnv() {
  const char* spec = std::getenv("SHERMAN_CRASH_AT");
  if (spec == nullptr || *spec == '\0') return false;
  std::string s(spec);
  uint32_t nth = 1;
  const size_t colon = s.rfind(':');
  if (colon != std::string::npos) {
    nth = static_cast<uint32_t>(std::atoi(s.c_str() + colon + 1));
    s = s.substr(0, colon);
  }
  const int site = CrashSiteId(s);
  if (site < 0) return false;
  const char* cs_spec = std::getenv("SHERMAN_CRASH_CS");
  const int cs = cs_spec != nullptr ? std::atoi(cs_spec) : 0;
  Arm(site, nth, cs);
  return true;
}

void CrashInjector::KillClient(int cs) { MarkDead(cs); }

void CrashInjector::Reset() {
  armed_ = false;
  fired_ = false;
  any_dead_ = false;
  site_ = -1;
  nth_ = 1;
  hits_ = 0;
  victim_cs_ = -1;
  dead_.clear();
}

bool CrashInjector::ShouldFire(int site, int cs) {
  if (!armed_ || site != site_ || cs != victim_cs_ || dead(cs)) return false;
  if (++hits_ < nth_) return false;
  fired_ = true;
  MarkDead(cs);
  return true;
}

void CrashInjector::MarkDead(int cs) {
  if (cs < 0) return;
  if (static_cast<size_t>(cs) >= dead_.size()) dead_.resize(cs + 1, false);
  const bool fresh = !dead_[cs];
  dead_[cs] = true;
  any_dead_ = true;
  if (fresh && death_observer_) death_observer_(cs);
}

}  // namespace sherman::fault
