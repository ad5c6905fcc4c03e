#include "ssd/devices.h"

#include <algorithm>

#include "common/logging.h"

namespace rif {
namespace ssd {

Tick
PageOp::pendingDieTicks() const
{
    if (type != Type::Read)
        return dieTicks;
    Tick t = 0;
    for (std::size_t i = phase; i < script.phases.size(); ++i) {
        if (script.phases[i].kind != ReadPhase::Kind::DieVisit)
            break;
        t += script.phases[i].duration;
    }
    return t;
}

DieModel::DieModel(Simulator &sim, const SsdConfig &config,
                   ChannelModel &channel)
    : sim_(sim),
      channel_(channel),
      planes_(config.geometry.planesPerDie),
      lanes_(kOpTypes * static_cast<std::size_t>(config.geometry.planesPerDie))
{
}

void
DieModel::enqueue(PageOp *op)
{
    enqueueQuiet(op);
    // Defer batch formation by one zero-delay event so that all ops
    // arriving at the same tick (e.g. the pages of one host request)
    // coalesce into a single multi-plane batch instead of the first op
    // issuing alone.
    kick();
}

void
DieModel::enqueueQuiet(PageOp *op)
{
    RIF_ASSERT(op->addr.plane >= 0 && op->addr.plane < planes_,
               "plane out of range");
    lane(op->type, op->addr.plane).push(Entry{nextSeq_++, op});
    ++queued_;
}

void
DieModel::kick()
{
    sim_.schedule(0, [this] { tryStart(); });
}

void
DieModel::tryStart()
{
    if (busy_ || queued_ == 0)
        return;

    // The batch type is the oldest queued op's type.
    Lane *oldest = nullptr;
    for (Lane &l : lanes_) {
        if (!l.empty() &&
            (oldest == nullptr || l.front().seq < oldest->front().seq))
            oldest = &l;
    }
    const PageOp::Type batch_type = oldest->front().op->type;

    // A batch is the first op of the batch type on each plane, in FIFO
    // order; an erase goes alone.
    std::vector<Entry> &batch = batch_;
    batch.clear();
    if (batch_type == PageOp::Type::Erase) {
        batch.push_back(oldest->front());
        oldest->pop();
    } else {
        for (int plane = 0; plane < planes_; ++plane) {
            Lane &l = lane(batch_type, plane);
            if (l.empty())
                continue;
            batch.push_back(l.front());
            l.pop();
        }
        std::sort(batch.begin(), batch.end(),
                  [](const Entry &a, const Entry &b) {
                      return a.seq < b.seq;
                  });
    }
    RIF_ASSERT(!batch.empty());
    queued_ -= batch.size();

    busy_ = true;
    Tick busy_for = 0;
    for (const Entry &e : batch) {
        PageOp *op = e.op;
        const Tick t = op->pendingDieTicks();
        busy_for = std::max(busy_for, t);
        sim_.schedule(t, [this, op] { releaseOp(op); });
    }
    sim_.schedule(busy_for, [this] {
        busy_ = false;
        tryStart();
    });
}

void
DieModel::releaseOp(PageOp *op)
{
    switch (op->type) {
      case PageOp::Type::Read: {
        // Consume the run of DieVisit phases just executed.
        while (!op->scriptDone() &&
               op->currentPhase().kind == ReadPhase::Kind::DieVisit) {
            op->phase++;
        }
        RIF_ASSERT(!op->scriptDone() &&
                       op->currentPhase().kind ==
                           ReadPhase::Kind::Transfer,
                   "a die visit must be followed by a transfer");
        channel_.enqueue(op);
        break;
      }
      case PageOp::Type::Write:
      case PageOp::Type::Erase: {
        // Move the completion out first: it commonly deletes `op`, which
        // would otherwise destroy the executing closure's captures.
        auto done = std::move(op->onComplete);
        done(op);
        break;
      }
    }
}

ChannelModel::ChannelModel(Simulator &sim, const SsdConfig &config,
                           EccEngine &ecc, ChannelUsage &usage)
    : sim_(sim), config_(config), ecc_(ecc), usage_(usage)
{
}

void
ChannelModel::setDieLookup(DieLookup f)
{
    dieLookup_ = std::move(f);
}

void
ChannelModel::enqueue(PageOp *op)
{
    queue_.push(op);
    tryStart();
}

void
ChannelModel::poke()
{
    tryStart();
}

void
ChannelModel::tryStart()
{
    if (busy_)
        return;
    if (queue_.empty()) {
        usage_.transition(ChannelState::Idle, sim_.now());
        return;
    }

    PageOp *op = queue_.front();
    // A read transfer heads to the ECC engine only when a decode phase
    // follows; e.g. Sentinel's extra sentinel-cell read is consumed by
    // the controller without an LDPC decode.
    const bool is_read = op->type == PageOp::Type::Read;
    const bool toward_ecc =
        is_read && op->phase + 1 < op->script.phases.size() &&
        op->script.phases[op->phase + 1].kind == ReadPhase::Kind::Decode;
    if (toward_ecc && !ecc_.canAccept()) {
        // Root cause three (§III-B3): the decoder's buffer is full, so
        // the channel idles even though work is pending.
        usage_.transition(ChannelState::EccWait, sim_.now());
        return;
    }
    queue_.pop();

    ChannelState state = ChannelState::WriteXfer;
    if (is_read)
        state = op->currentPhase().usage;
    if (toward_ecc)
        ecc_.reserve();
    usage_.transition(state, sim_.now());
    busy_ = true;

    sim_.schedule(config_.timing.tDmaPage, [this, op, is_read, toward_ecc] {
        busy_ = false;
        if (!is_read) {
            // Program data is now in the die's page buffer.
            dieLookup_(op->addr).enqueue(op);
        } else {
            op->phase++; // consume the Transfer phase
            if (toward_ecc) {
                ecc_.accept(op);
            } else if (op->scriptDone()) {
                auto done = std::move(op->onComplete);
                done(op);
            } else {
                RIF_ASSERT(op->currentPhase().kind ==
                               ReadPhase::Kind::DieVisit,
                           "transfer must lead to decode, die or end");
                dieLookup_(op->addr).enqueue(op);
            }
        }
        tryStart();
    });
}

EccEngine::EccEngine(Simulator &sim, const SsdConfig &config)
    : sim_(sim), config_(config)
{
}

void
EccEngine::setDieLookup(DieLookup f)
{
    dieLookup_ = std::move(f);
}

void
EccEngine::reserve()
{
    RIF_ASSERT(held_ < config_.eccBufferPages);
    ++held_;
}

void
EccEngine::accept(PageOp *op)
{
    queue_.push(op);
    tryDecode();
}

void
EccEngine::tryDecode()
{
    if (busy_ || queue_.empty())
        return;
    PageOp *op = queue_.front();
    queue_.pop();
    busy_ = true;

    const ReadPhase &ph = op->currentPhase();
    RIF_ASSERT(ph.kind == ReadPhase::Kind::Decode);

    sim_.schedule(ph.duration, [this, op] {
        busy_ = false;
        RIF_ASSERT(held_ > 0);
        --held_;

        const bool failed = op->currentPhase().decodeFails;
        op->phase++; // consume the Decode phase
        if (failed) {
            RIF_ASSERT(!op->scriptDone() &&
                           op->currentPhase().kind ==
                               ReadPhase::Kind::DieVisit,
                       "a failed decode must be followed by a re-read");
            dieLookup_(op->addr).enqueue(op);
        } else {
            RIF_ASSERT(op->scriptDone(),
                       "successful decode must end the script");
            auto done = std::move(op->onComplete);
            done(op);
        }
        if (channel_ != nullptr)
            channel_->poke();
        tryDecode();
    });
}

HostLink::HostLink(Simulator &sim, double gbps)
    : sim_(sim), bytesPerTick_(gbps * 1e9 / static_cast<double>(kNsPerSec))
{
    RIF_ASSERT(gbps > 0.0);
}

void
HostLink::transfer(std::uint64_t bytes, InlineFunction<void()> done)
{
    Job job;
    job.duration = static_cast<Tick>(
        static_cast<double>(bytes) / bytesPerTick_ + 0.5);
    job.done = std::move(done);
    queue_.push(std::move(job));
    tryStart();
}

void
HostLink::tryStart()
{
    if (busy_ || queue_.empty())
        return;
    // The completion waits in inFlight_ rather than in the event's
    // closure, which it would push past the inline capacity.
    const Tick duration = queue_.front().duration;
    inFlight_ = std::move(queue_.front().done);
    queue_.pop();
    busy_ = true;
    sim_.schedule(duration, [this] {
        busy_ = false;
        auto done = std::move(inFlight_);
        done();
        tryStart();
    });
}

} // namespace ssd
} // namespace rif
