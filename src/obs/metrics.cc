#include "obs/metrics.hh"

#include "base/logging.hh"

namespace dvi
{
namespace obs
{

MetricId
MetricRegistry::intern(std::vector<std::string> &names,
                       const std::string &name, std::size_t cap,
                       const char *what)
{
    for (std::size_t i = 0; i < names.size(); ++i)
        if (names[i] == name)
            return static_cast<MetricId>(i);
    fatal_if(names.size() >= cap, "MetricRegistry: more than ", cap,
             " ", what, "s (registering '", name, "')");
    names.push_back(name);
    return static_cast<MetricId>(names.size() - 1);
}

MetricId
MetricRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu_);
    return intern(counterNames_, name, maxCounters, "counter");
}

MetricId
MetricRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu_);
    return intern(gaugeNames_, name, maxGauges, "gauge");
}

MetricId
MetricRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu_);
    const MetricId id = intern(histogramNames_, name,
                               maxCounters, "histogram");
    if (id == histograms_.size())
        histograms_.push_back(std::make_unique<Histogram>());
    return id;
}

void
MetricRegistry::add(MetricId counter, std::uint64_t delta)
{
    counters_[counter].fetch_add(delta, std::memory_order_relaxed);
}

void
MetricRegistry::set(MetricId gauge, std::uint64_t value)
{
    gauges_[gauge].store(value, std::memory_order_relaxed);
}

void
MetricRegistry::record(MetricId histogram, std::uint64_t value)
{
    std::lock_guard<std::mutex> lk(histMu_);
    histograms_[histogram]->record(value);
}

MetricRegistry::Snapshot
MetricRegistry::snapshot() const
{
    Snapshot out;
    std::lock_guard<std::mutex> lk(mu_);
    out.counters.reserve(counterNames_.size());
    for (std::size_t c = 0; c < counterNames_.size(); ++c)
        out.counters.emplace_back(
            counterNames_[c],
            counters_[c].load(std::memory_order_relaxed));
    out.gauges.reserve(gaugeNames_.size());
    for (std::size_t g = 0; g < gaugeNames_.size(); ++g)
        out.gauges.emplace_back(
            gaugeNames_[g],
            gauges_[g].load(std::memory_order_relaxed));
    {
        std::lock_guard<std::mutex> hlk(histMu_);
        out.histograms.reserve(histogramNames_.size());
        for (std::size_t h = 0; h < histogramNames_.size(); ++h)
            out.histograms.emplace_back(histogramNames_[h],
                                        *histograms_[h]);
    }
    return out;
}

json::Value
MetricRegistry::snapshotJson() const
{
    const Snapshot snap = snapshot();
    json::Value doc = json::Value::object();

    json::Value counters = json::Value::object();
    for (const auto &c : snap.counters)
        counters.set(c.first, c.second);
    doc.set("counters", std::move(counters));

    json::Value gauges = json::Value::object();
    for (const auto &g : snap.gauges)
        gauges.set(g.first, g.second);
    doc.set("gauges", std::move(gauges));

    json::Value hists = json::Value::object();
    for (const auto &h : snap.histograms) {
        json::Value o = json::Value::object();
        o.set("samples", h.second.samples());
        o.set("sum", h.second.sum());
        o.set("min", h.second.min());
        o.set("max", h.second.max());
        o.set("mean", h.second.mean());
        hists.set(h.first, std::move(o));
    }
    doc.set("histograms", std::move(hists));
    return doc;
}

void
MetricRegistry::flush(TelemetrySink &sink) const
{
    sink.event("metrics", snapshotJson());
}

MetricFlusher::MetricFlusher(const MetricRegistry &registry,
                             TelemetrySink &sink,
                             unsigned intervalMs)
    : registry_(registry), sink_(sink), intervalMs_(intervalMs)
{
    thread_ = std::thread([this] {
        std::unique_lock<std::mutex> lk(mu_);
        while (!stopping_) {
            if (cv_.wait_for(
                    lk, std::chrono::milliseconds(intervalMs_),
                    [this] { return stopping_; }))
                break;
            lk.unlock();
            registry_.flush(sink_);
            lk.lock();
        }
    });
}

MetricFlusher::~MetricFlusher()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

} // namespace obs
} // namespace dvi
