// Typed store errors with a retry-oriented classification.
//
// Every failure the .drt stack can surface carries a fault::FaultKind:
//
//   kTransient   the operation may succeed if repeated (EINTR/EAGAIN/EIO
//                class errnos, injected transient faults). StoreReader's
//                retry policy absorbs these up to `max_attempts`.
//   kPermanent   repeating is futile (missing file, malformed header,
//                truncation, out-of-range request).
//   kCorruption  the bytes are present but wrong (CRC mismatch, injected
//                corruption). Never retried; the quarantine path in
//                core::evaluate_streaming can skip the damaged row group.
//
// StoreError derives from std::runtime_error, so existing catch sites keep
// working; hardened consumers catch StoreError and read its reason_code().
#ifndef DRE_STORE_ERROR_H
#define DRE_STORE_ERROR_H

#include <stdexcept>
#include <string>

#include "fault/fault.h"

namespace dre::store {

using ErrorKind = fault::FaultKind;

class StoreError : public std::runtime_error {
public:
    StoreError(ErrorKind kind, const std::string& message)
        : std::runtime_error(message), kind_(kind) {}

    // Stable reason code shared with core::QuarantineReport.
    const char* reason_code() const noexcept {
        switch (kind_) {
            case ErrorKind::kTransient: return "store-io-transient";
            case ErrorKind::kPermanent: return "store-io-permanent";
            case ErrorKind::kCorruption: return "store-corruption";
            // Slow faults are advisory (serve-side io pacing) and never
            // materialize as a StoreError; the arm exists for -Wswitch.
            case ErrorKind::kSlow: return "store-slow";
        }
        return "store-error";
    }

private:
    ErrorKind kind_;
};

} // namespace dre::store

#endif // DRE_STORE_ERROR_H
