/**
 * @file
 * Regenerates the in-text MTTF analysis of section 3.3: "consider a
 * system that crashes once every two months ... the MTTF of a
 * disk-based system would be 15 years, and the MTTF of Rio without
 * protection would be 11 years."
 *
 * MTTF(corruption) = crash interval / P(corruption | crash).
 *
 * By default the corruption probabilities come from a small measured
 * campaign (RIO_MTTF_CRASHES crashes per cell across all 13 fault
 * types); set RIO_MTTF_CRASHES=0 to print only the paper-rate
 * derivation. The measured campaign also takes the campaign knobs
 * (campaignConfigFromEnv); see knobTable() in harness/hconfig.cc.
 */

#include <cstdio>

#include "harness/crashcampaign.hh"
#include "harness/report.hh"

int
main()
{
    using namespace rio;

    harness::CampaignConfig config = harness::campaignConfigFromEnv();
    const double kCrashIntervalMonths = 2.0;
    auto mttfYears = [&](double corruptionsPerCrash) {
        if (corruptionsPerCrash <= 0)
            return 1e9;
        return kCrashIntervalMonths / corruptionsPerCrash / 12.0;
    };

    std::printf("MTTF analysis (section 3.3): crashes every %.0f "
                "months\n\n",
                kCrashIntervalMonths);

    std::printf("Derivation from the paper's measured rates:\n");
    std::printf("  disk-based        7/650  -> MTTF %5.1f years "
                "(paper: ~15)\n",
                mttfYears(7.0 / 650.0));
    std::printf("  Rio w/o protection 10/650 -> MTTF %5.1f years "
                "(paper: ~11)\n",
                mttfYears(10.0 / 650.0));
    std::printf("  Rio w/ protection  4/650  -> MTTF %5.1f years\n\n",
                mttfYears(4.0 / 650.0));

    const u32 crashes = harness::envU32("RIO_MTTF_CRASHES", 4);
    if (crashes == 0) {
        std::printf("RIO_MTTF_CRASHES=0: skipping measured campaign.\n");
        return 0;
    }

    config.crashesPerCell = crashes;
    harness::CrashCampaign campaign(config);
    const harness::CampaignResult result = campaign.runAll();

    std::printf("Derivation from our measured rates (%u crashes per "
                "cell):\n",
                crashes);
    for (int system = 0; system < 3; ++system) {
        const auto kind = static_cast<harness::SystemKind>(system);
        const u64 total = result.total(kind).crashes;
        const u64 corrupt = result.total(kind).corruptions;
        const double rate =
            total ? static_cast<double>(corrupt) /
                        static_cast<double>(total)
                  : 0.0;
        if (corrupt == 0) {
            std::printf("  %-20s %llu/%llu corruptions -> MTTF > "
                        "%.0f years (none observed)\n",
                        harness::systemKindName(kind),
                        static_cast<unsigned long long>(corrupt),
                        static_cast<unsigned long long>(total),
                        mttfYears(1.0 / (static_cast<double>(total) +
                                         1.0)));
        } else {
            std::printf("  %-20s %llu/%llu corruptions -> MTTF %.1f "
                        "years\n",
                        harness::systemKindName(kind),
                        static_cast<unsigned long long>(corrupt),
                        static_cast<unsigned long long>(total),
                        mttfYears(rate));
        }
    }
    return 0;
}
