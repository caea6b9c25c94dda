#include "oploop.hh"

#include <algorithm>
#include <cmath>

#include "spans.hh"

namespace rio::riobench
{

const char *
opClassName(OpClass cls)
{
    switch (cls) {
      case OpClass::Mail: return "mail";
      case OpClass::Save: return "save";
      case OpClass::Read: return "read";
    }
    return "?";
}

OpStream::OpStream(const OpMix &mix, u64 seed)
    : mix_(mix), pick_(seed * 0x9e3779b97f4a7c15ull + 1),
      zipfMail_(mix.mailboxes, mix.theta), zipfDocs_(mix.docs, mix.theta)
{}

OpStream::Op
OpStream::next()
{
    // Draw order matters: one real() for the class, then one sample
    // for the target, as in bench_server.
    const double roll = pick_.real();
    if (roll < mix_.mail)
        return {OpClass::Mail, zipfMail_.sample(pick_)};
    if (roll < mix_.mail + mix_.save)
        return {OpClass::Save, zipfDocs_.sample(pick_)};
    return {OpClass::Read, zipfDocs_.sample(pick_)};
}

u64
percentileOf(std::vector<u64> samples, double p)
{
    if (samples.empty())
        return 0;
    const double clamped = std::clamp(p, 0.0, 100.0);
    const auto rank = static_cast<std::size_t>(std::ceil(
        clamped / 100.0 * static_cast<double>(samples.size())));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(index),
                     samples.end());
    return samples[index];
}

double
medianOf(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 != 0 ? values[mid]
                                  : (values[mid - 1] + values[mid]) / 2;
}

void
OpLatencies::record(OpClass cls, u64 ns)
{
    all_.push_back(ns);
    byClass_[static_cast<std::size_t>(cls)].push_back(ns);
}

u64
OpLatencies::percentile(OpClass cls, double p) const
{
    return percentileOf(byClass_[static_cast<std::size_t>(cls)], p);
}

OpWindows::OpWindows(u64 totalOps, u64 windows)
    : totalOps_(totalOps),
      windowNs_(static_cast<std::size_t>(
                    std::min(std::max<u64>(windows, 1), totalOps)),
                0)
{
    nextEdge_ = windowNs_.empty() ? 0 : totalOps_ / windowNs_.size();
}

void
OpWindows::resume()
{
    last_ = hostNowNs();
}

void
OpWindows::pause()
{
    if (window_ < windowNs_.size())
        windowNs_[window_] += hostNowNs() - last_;
}

void
OpWindows::closeWindow()
{
    const u64 now = hostNowNs();
    windowNs_[window_] += now - last_;
    last_ = now;
    ++window_;
    nextEdge_ = totalOps_ * (window_ + 1) / windowNs_.size();
}

std::vector<double>
OpWindows::rates() const
{
    std::vector<double> rates;
    u64 begin = 0;
    for (std::size_t w = 0; w < windowNs_.size(); ++w) {
        const u64 end = totalOps_ * (w + 1) / windowNs_.size();
        if (windowNs_[w] > 0)
            rates.push_back(static_cast<double>(end - begin) * 1e9 /
                            static_cast<double>(windowNs_[w]));
        begin = end;
    }
    return rates;
}

double
OpWindows::sustainedRate() const
{
    std::vector<double> sorted = rates();
    if (sorted.empty())
        return 0;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(0.8 * static_cast<double>(sorted.size())));
    return sorted[rank - 1];
}

} // namespace rio::riobench
