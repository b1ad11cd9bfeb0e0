#ifndef ETSC_CORE_REGISTRY_H_
#define ETSC_CORE_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/status.h"

namespace etsc {

/// Name -> factory registry: the framework's extension point (paper Sec. 5.5).
/// New entries register themselves once (typically through an ETSC_REGISTER_*
/// macro) and every harness and bench can then create them by name. `Noun`
/// names the entry kind in messages ("trigger"); `Listing` heads the list of
/// registered names a NotFound carries ("registered triggers"), so each
/// namespace lists only its own names.
template <typename T, const char* Noun, const char* Listing>
class Registry {
 public:
  using Factory = std::function<std::unique_ptr<T>()>;

  /// Process-wide registry instance.
  static Registry& Global() {
    static Registry* registry = new Registry();
    return *registry;
  }

  /// Registers a factory; fails on duplicate names.
  Status Register(const std::string& name, Factory factory) {
    if (factories_.count(name) > 0) {
      return Status::InvalidArgument(std::string(Noun) + " '" + name +
                                     "' already registered");
    }
    factories_[name] = std::move(factory);
    return Status::OK();
  }

  /// Instantiates a registered entry.
  Result<std::unique_ptr<T>> Create(const std::string& name) const {
    const auto it = factories_.find(name);
    if (it == factories_.end()) {
      std::string known;
      for (const auto& [registered, factory] : factories_) {
        if (!known.empty()) known += ", ";
        known += registered;
      }
      return Status::NotFound(std::string(Noun) + " '" + name +
                              "' is not registered (" + Listing + ": " +
                              known + ")");
    }
    return it->second();
  }

  bool Contains(const std::string& name) const {
    return factories_.count(name) > 0;
  }

  /// Registered names, sorted.
  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    names.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) names.push_back(name);
    return names;
  }

 private:
  std::map<std::string, Factory> factories_;
};

namespace internal {

inline constexpr char kClassifierNoun[] = "classifier";
inline constexpr char kClassifierListing[] = "registered";

/// Performs the registration in its constructor; aborts on duplicates so
/// misconfigured builds fail fast at startup.
template <typename R>
struct Registrar {
  Registrar(const std::string& name, typename R::Factory factory) {
    const Status status = R::Global().Register(name, std::move(factory));
    ETSC_CHECK(status.ok());
  }
};

}  // namespace internal

/// Early classifiers by name (the legacy algorithm namespace).
using ClassifierRegistry = Registry<EarlyClassifier, internal::kClassifierNoun,
                                   internal::kClassifierListing>;

/// Registers a factory expression under `name` at static-initialisation time.
/// Usage (in a .cc file):
///   ETSC_REGISTER_EARLY_CLASSIFIER("ects", [] { return std::make_unique<Ects>(); });
#define ETSC_REGISTER_EARLY_CLASSIFIER(name, factory)                       \
  static const ::etsc::internal::Registrar<::etsc::ClassifierRegistry>      \
      ETSC_CONCAT_(etsc_registrar_, __COUNTER__)(name, factory)

}  // namespace etsc

#endif  // ETSC_CORE_REGISTRY_H_
