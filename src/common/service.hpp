// The middleware-neutral callable service object. Every middleware stack
// (Jini, HAVi, X10, SOAP, mail, UPnP) exposes and consumes services in
// this form at its adapter boundary, which is what lets the PCM generate
// proxies mechanically.
#pragma once

#include <functional>
#include <string>

#include "common/inline_fn.hpp"
#include "common/interface_desc.hpp"
#include "common/status.hpp"
#include "common/value.hpp"

namespace hcm {

// Completion callbacks ride the wire hot path. A hop that only observes
// a completion decorates it in place (SmallFn::decorate, see
// obs::observe_completion); a closure that captures one can never fit
// this same alias and takes a heap cell. The inline budget holds the
// callables a call starts from plus the observers its hops add
// (measured by bench_ext_wire_throughput's allocs/call).
using InvokeResultFn = SmallFn<void(Result<Value>), 192>;

// Invoke `method` with positional args; completion is asynchronous.
using ServiceHandler = std::function<void(
    const std::string& method, const ValueList& args, InvokeResultFn done)>;

// InterfaceDesc <-> Value (for carrying interfaces inside registration
// messages, e.g. Jini service items and HAVi SDD data).
[[nodiscard]] Value interface_to_value(const InterfaceDesc& iface);
[[nodiscard]] Result<InterfaceDesc> interface_from_value(const Value& v);

}  // namespace hcm
