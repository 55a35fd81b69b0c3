// Small formatting helpers shared by the bench binaries and sinks.
#ifndef TWM_ANALYSIS_REPORT_H
#define TWM_ANALYSIS_REPORT_H

#include <string>

#include "analysis/campaign.h"

namespace twm {

// `value` with exactly `decimals` fraction digits and a '.' decimal point
// REGARDLESS of the process locale.  snprintf("%f") obeys LC_NUMERIC and
// emits "0,123456" under a comma-decimal locale — invalid JSON on every
// streamed surface — so anything that formats a float into JSON, CSV or a
// table goes through this instead.  Non-finite values format as "0".
std::string fixed_str(double value, unsigned decimals);

// "100.0%" style percentage (locale-independent).
std::string pct_str(double pct);

// "detected/total (pct)" summary of a coverage outcome (the detected-under-
// all-contents figure, which is what the paper's theorem claims).
std::string coverage_str(const CoverageOutcome& o);

}  // namespace twm

#endif  // TWM_ANALYSIS_REPORT_H
