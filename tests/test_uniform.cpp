// UNIFORM (§2) schedule pin. The protocol draws its attempt offsets once at
// activation and then answers every per-slot call from them; this suite
// drives one protocol object per job through its whole window, the way the
// engine calls it, and hashes every answer. The digest is the contract a
// change to UNIFORM's storage must keep: same offsets, same declared
// probability bits, same dormancy promises, same done() slot by slot.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/params.hpp"
#include "core/uniform.hpp"
#include "report_digest.hpp"
#include "sim/protocol.hpp"
#include "util/rng.hpp"

namespace crmd::core {
namespace {

using tests::mix;
using tests::mix_double;

// Attempt counts 1..4 over windows from one slot up, including windows
// smaller than the attempt count (the schedule then fills the window).
// Every third transmission succeeds, so some jobs finish early on a success
// and the rest run out of attempts.
TEST(Uniform, PinnedScheduleDigest) {
  constexpr std::uint64_t kPinned = 0xda371f9c18780a6dULL;
  std::uint64_t h = 0x554E4946ULL;  // "UNIF"
  std::int64_t transmissions = 0;
  for (int attempts = 1; attempts <= 4; ++attempts) {
    Params params;
    params.uniform_attempts = attempts;
    const sim::ProtocolFactory factory = make_uniform_factory(params);
    for (const Slot window : {1, 2, 3, 4, 5, 7, 16, 61, 256, 4096}) {
      for (JobId job = 0; job < 6; ++job) {
        sim::JobInfo info;
        info.id = job;
        info.release = 37 * static_cast<Slot>(job);
        info.deadline = info.release + window;
        const util::Rng master(0x5EEDULL +
                               static_cast<std::uint64_t>(attempts));
        const std::unique_ptr<sim::Protocol> p =
            factory(info, master.child(job + 1));
        p->on_activate(info);
        std::vector<Slot> offsets;
        for (Slot s = 0; s < window; ++s) {
          const sim::SlotView view{s, info.release + s};
          const sim::DormantSpan span = p->dormant_span(view);
          h = mix(h, static_cast<std::uint64_t>(span.slots));
          h = mix_double(h, span.prob);
          const sim::SlotAction action = p->on_slot(view);
          h = mix(h, action.transmit ? 1 : 0);
          h = mix(h, action.sleep ? 1 : 0);
          h = mix_double(h, action.declared_prob);
          sim::SlotFeedback fb;
          if (action.transmit) {
            EXPECT_EQ(action.message.sender, job);
            offsets.push_back(s);
            ++transmissions;
            fb.outcome = transmissions % 3 == 0 ? sim::SlotOutcome::kSuccess
                                                : sim::SlotOutcome::kNoise;
          }
          p->on_feedback(view, fb);
          const bool done = p->done();
          h = mix(h, done ? 1 : 0);
          if (done) {
            break;  // the engine retires the job here
          }
        }
        h = mix(h, offsets.size());
        for (const Slot offset : offsets) {
          h = mix(h, static_cast<std::uint64_t>(offset));
        }
      }
    }
  }
  EXPECT_GT(transmissions, 0);
  EXPECT_EQ(h, kPinned) << "digest 0x" << std::hex << h;
}

}  // namespace
}  // namespace crmd::core
