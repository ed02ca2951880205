#include "report/serialize.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

#include "report/tokenizer.hpp"

namespace crooks::report {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& why) {
  throw std::invalid_argument("line " + std::to_string(line) + ": " + why);
}

/// Reads one numeric field through the format's checked reader. A value
/// equal to `reserved` (the in-memory sentinel for "attribute absent") is
/// rejected too: accepting it would silently drop the attribute.
template <class T>
T parse_number(std::string_view s, std::size_t line, const char* what,
               std::optional<T> reserved = std::nullopt) {
  T v{};
  const std::errc ec = read_number(s, v);
  auto quoted = [&] { return std::string(what) + ": '" + std::string(s) + "'"; };
  if (ec == std::errc::result_out_of_range) fail(line, "out-of-range " + quoted());
  if (ec != std::errc()) fail(line, "bad " + quoted());
  if (v == reserved) {
    fail(line, "reserved " + quoted() + " (the sentinel for an absent " + what + ")");
  }
  return v;
}

ct::IsolationLevel parse_level(std::string_view s, std::size_t line) {
  if (const auto l = ct::level_from_name(s)) return *l;
  fail(line, "unknown isolation level '" + std::string(s) +
                 "' (valid: " + std::string(ct::kValidLevelNames) + ")");
}

}  // namespace

Observations parse_observations(std::istream& in) {
  std::vector<model::Transaction> txns;
  std::unordered_map<Key, std::vector<TxnId>> vo;
  std::unordered_map<Key, std::unordered_set<TxnId>> vo_seen;  // keys on 2+ lines
  std::vector<TxnId> sorted_ids;                               // reused scratch
  std::optional<ct::IsolationLevel> default_level;

  std::string line;
  std::size_t lineno = 0;
  std::vector<std::string_view> tok;  // reused across lines

  // Open-transaction state.
  bool open = false;
  TxnId id{};
  SessionId session = kNoSession;
  SiteId site{0};
  Timestamp start = kNoTimestamp, commit = kNoTimestamp;
  std::optional<ct::IsolationLevel> level;
  std::vector<model::Operation> ops;

  auto close = [&](std::size_t at) {
    if (!open) fail(at, "'end' without 'txn'");
    txns.emplace_back(id, std::move(ops), session, site, start, commit, level);
    ops = {};
    open = false;
  };

  while (std::getline(in, line)) {
    ++lineno;
    tok.clear();
    LineTokens tokens(line);
    for (std::string_view t = tokens.next(); !t.empty(); t = tokens.next()) {
      tok.push_back(t);
    }
    if (tok.empty()) continue;

    if (tok[0] == "txn") {
      if (open) fail(lineno, "'txn' while another transaction is open");
      if (tok.size() < 2) fail(lineno, "txn needs an id");
      open = true;
      id = TxnId{parse_number<std::uint64_t>(tok[1], lineno, "txn id")};
      if (id == kInitTxn) {
        fail(lineno, "reserved txn id: '" + std::string(tok[1]) +
                         "' (the writer of the initial state)");
      }
      session = kNoSession;
      site = SiteId{0};
      start = commit = kNoTimestamp;
      level = std::nullopt;
      for (std::size_t i = 2; i < tok.size(); ++i) {
        const auto eq = tok[i].find('=');
        if (eq == std::string_view::npos) {
          fail(lineno, "expected key=value: '" + std::string(tok[i]) + "'");
        }
        const std::string_view key = tok[i].substr(0, eq);
        const std::string_view val = tok[i].substr(eq + 1);
        if (key == "session") {
          session = SessionId{parse_number<std::uint32_t>(val, lineno, "session",
                                                          kNoSession.value)};
        } else if (key == "site") {
          site = SiteId{parse_number<std::uint32_t>(val, lineno, "site")};
        } else if (key == "start") {
          start = parse_number<Timestamp>(val, lineno, "start", kNoTimestamp);
        } else if (key == "commit") {
          commit = parse_number<Timestamp>(val, lineno, "commit", kNoTimestamp);
        } else if (key == "level") {
          level = parse_level(val, lineno);
        } else {
          fail(lineno, "unknown attribute '" + std::string(key) + "'");
        }
      }
      // A transaction that commits before it starts real-time-precedes
      // itself: every timed level would refute it on malformed input.
      if (start != kNoTimestamp && commit != kNoTimestamp && start > commit) {
        fail(lineno, model::inverted_timestamps_message(start, commit));
      }
    } else if (tok[0] == "read") {
      if (!open) fail(lineno, "'read' outside a transaction");
      if (tok.size() < 3) fail(lineno, "read needs: read <key> <writer> [phantom]");
      const Key k{parse_number<std::uint64_t>(tok[1], lineno, "key")};
      const TxnId w{parse_number<std::uint64_t>(tok[2], lineno, "writer")};
      const bool phantom = tok.size() > 3 && tok[3] == "phantom";
      if (tok.size() > 3 && !phantom) {
        fail(lineno, "unexpected token '" + std::string(tok[3]) + "'");
      }
      ops.push_back(phantom ? model::Operation::read_intermediate(k, w)
                            : model::Operation::read(k, w));
    } else if (tok[0] == "write") {
      if (!open) fail(lineno, "'write' outside a transaction");
      if (tok.size() != 2) fail(lineno, "write needs: write <key>");
      ops.push_back(model::Operation::write(
          Key{parse_number<std::uint64_t>(tok[1], lineno, "key")}, id));
    } else if (tok[0] == "end") {
      close(lineno);
    } else if (tok[0] == "vo") {
      if (open) fail(lineno, "'vo' inside a transaction");
      if (tok.size() < 2) fail(lineno, "vo needs: vo <key> <id...>");
      const Key key{parse_number<std::uint64_t>(tok[1], lineno, "key")};
      auto& order = vo[key];
      const std::size_t before = order.size();
      for (std::size_t i = 2; i < tok.size(); ++i) {
        order.push_back(TxnId{parse_number<std::uint64_t>(tok[i], lineno, "txn id")});
      }
      // A writer installs one version per key; a repeat would read as a
      // cycle. A key's first line is checked by sorting a copy; a key
      // continued over more lines keeps a set of the ids seen so far.
      auto repeated = [&](TxnId w) {
        fail(lineno, "vo lists " + crooks::to_string(w) + " twice for " +
                         crooks::to_string(key));
      };
      if (before == 0) {
        sorted_ids.assign(order.begin(), order.end());
        std::sort(sorted_ids.begin(), sorted_ids.end());
        const auto rep = std::adjacent_find(sorted_ids.begin(), sorted_ids.end());
        if (rep != sorted_ids.end()) repeated(*rep);
      } else {
        auto [seen, fresh] = vo_seen.try_emplace(key);
        if (fresh) seen->second.insert(order.begin(), order.begin() + before);
        for (auto it = order.begin() + before; it != order.end(); ++it) {
          if (!seen->second.insert(*it).second) repeated(*it);
        }
      }
    } else if (tok[0] == "default-level") {
      if (open) fail(lineno, "'default-level' inside a transaction");
      if (tok.size() != 2) fail(lineno, "default-level needs: default-level <name>");
      default_level = parse_level(tok[1], lineno);
    } else {
      fail(lineno, "unknown directive '" + std::string(tok[0]) + "'");
    }
  }
  if (open) fail(lineno, "unterminated transaction (missing 'end')");

  return {model::TransactionSet(std::move(txns)), std::move(vo), default_level};
}

Observations parse_observations(const std::string& text) {
  std::istringstream ss(text);
  return parse_observations(ss);
}

void write_observations(std::ostream& out, const Observations& obs) {
  if (obs.default_level.has_value()) {
    out << "default-level " << ct::name_of(*obs.default_level) << "\n";
  }
  for (const model::Transaction& t : obs.txns) {
    out << "txn " << t.id().value;
    if (t.session() != kNoSession) out << " session=" << t.session().value;
    if (t.site() != SiteId{0}) out << " site=" << t.site().value;
    if (t.start_ts() != kNoTimestamp) out << " start=" << t.start_ts();
    if (t.commit_ts() != kNoTimestamp) out << " commit=" << t.commit_ts();
    if (t.level().has_value()) out << " level=" << ct::name_of(*t.level());
    out << "\n";
    for (const model::Operation& op : t.ops()) {
      if (op.is_read()) {
        out << "  read " << op.key.value << " " << op.value.writer.value
            << (op.value.phantom ? " phantom" : "") << "\n";
      } else {
        out << "  write " << op.key.value << "\n";
      }
    }
    out << "end\n";
  }
  for (const auto& [key, order] : obs.version_order) {
    out << "vo " << key.value;
    for (TxnId id : order) out << " " << id.value;
    out << "\n";
  }
}

std::string to_text(const Observations& obs) {
  std::ostringstream ss;
  write_observations(ss, obs);
  return ss.str();
}

}  // namespace crooks::report
