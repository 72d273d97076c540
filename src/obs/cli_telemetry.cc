#include "obs/cli_telemetry.hh"

#include "base/logging.hh"

namespace dvi
{
namespace obs
{

TelemetrySink *
CliTelemetry::open(bool always)
{
    fatal_if(intervalMs_ && path_.empty(),
             "--metrics-interval requires --telemetry");
    if (!path_.empty())
        sink_ = TelemetrySink::open(path_);
    else if (progress_ || always)
        sink_ = std::make_unique<TelemetrySink>();
    if (sink_ && progress_)
        sink_->addObserver(
            [this](const Event &e) { renderer_.observe(e); });
    return sink_.get();
}

void
CliTelemetry::installGlobal()
{
    global_ = sink_ != nullptr;
    if (global_) {
        setGlobalSink(sink_.get());
        setCoreSampleInsts(10000);
    }
}

MetricRegistry *
CliTelemetry::startMetrics()
{
    metrics_ = sink_ != nullptr;
    if (metrics_ && intervalMs_)
        flusher_ = std::make_unique<MetricFlusher>(registry_, *sink_,
                                                   intervalMs_);
    return metrics_ ? &registry_ : nullptr;
}

void
CliTelemetry::close()
{
    flusher_.reset();
    if (metrics_)
        registry_.flush(*sink_);
    if (global_) {
        setGlobalSink(nullptr);
        setCoreSampleInsts(0);
    }
    metrics_ = global_ = false;
    sink_.reset();
}

} // namespace obs
} // namespace dvi
