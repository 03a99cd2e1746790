#include "driver/figure_registry.h"

namespace fairmatch::bench {

// Defined in figures.cc / micro_figures.cc / packed_figures.cc and the
// serve, fault, update and recovery figure files; referenced here so the
// registration translation units are always pulled out of the static
// library.
void RegisterBuiltinFigures(FigureRegistry* registry);
void RegisterMicroFigures(FigureRegistry* registry);
void RegisterPackedFigures(FigureRegistry* registry);
void RegisterServeFigure(FigureRegistry* registry);
void RegisterFaultFigure(FigureRegistry* registry);
void RegisterUpdateFigure(FigureRegistry* registry);
void RegisterRecoveryFigure(FigureRegistry* registry);

FigureRegistry& FigureRegistry::Global() {
  static FigureRegistry* registry = [] {
    auto* r = new FigureRegistry();
    RegisterBuiltinFigures(r);
    RegisterMicroFigures(r);
    RegisterPackedFigures(r);
    RegisterServeFigure(r);
    RegisterFaultFigure(r);
    RegisterUpdateFigure(r);
    RegisterRecoveryFigure(r);
    return r;
  }();
  return *registry;
}

void FigureRegistry::Register(FigureSpec spec) {
  entries_[spec.name] = std::move(spec);
}

const FigureSpec* FigureRegistry::Find(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::string> FigureRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, spec] : entries_) names.push_back(name);
  return names;  // std::map keeps them sorted
}

}  // namespace fairmatch::bench
