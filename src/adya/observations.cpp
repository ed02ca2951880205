#include <unordered_map>

#include "adya/history.hpp"

namespace crooks::adya {

model::TransactionSet to_observations(const History& h) {
  std::vector<model::Transaction> out;
  for (const HistTxn& t : h.txns()) {
    if (!t.committed) continue;

    std::unordered_map<Key, std::uint32_t> final_seq;
    for (const Event& e : t.events) {
      if (e.type == EventType::kWrite) final_seq[e.key] = e.version.seq;
    }

    std::vector<model::Operation> ops;
    ops.reserve(t.events.size());
    for (const Event& e : t.events) {
      if (e.type == EventType::kWrite) {
        // Only the final write survives into the observable world
        // (executions apply final writes only, Definition 1).
        if (e.version.seq == final_seq.at(e.key)) {
          ops.push_back(model::Operation::write(e.key, t.id));
        }
        continue;
      }
      const TxnId w = e.version.writer;
      // Reads of the transaction's own writes constrain nothing across
      // transactions (their read states are [s0, s_p] by convention) and a
      // client cannot even express "which of my writes" in the final-write
      // world — drop them.
      if (w == t.id) continue;
      const bool intermediate = w != kInitTxn && h.contains(w) &&
                                h.by_id(w).committed &&
                                h.by_id(w).final_write_seq(e.key) != e.version.seq;
      ops.push_back(intermediate ? model::Operation::read_intermediate(e.key, w)
                                 : model::Operation::read(e.key, w));
    }
    out.emplace_back(t.id, std::move(ops), t.session, t.site, t.start_ts,
                     t.commit_ts, t.level);
  }
  return model::TransactionSet(std::move(out));
}

}  // namespace crooks::adya
