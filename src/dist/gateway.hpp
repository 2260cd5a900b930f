// Gateway components: the synthesized bridge endpoints of cross-node
// asynchronous bindings.
//
// A cross-node binding client@A.port -> server@B.iface never appears
// verbatim in either node's slice. The slicer (dist/slice.hpp) replaces it
// with two node-local halves built from ordinary framework machinery:
//
//   node A:  client.port --async--> __gw.out.<client>.<port>   (exit)
//   node B:  __gw.in.<client>.<port> --async--> server.iface   (entry)
//
// The *exit* is an active sporadic component whose content offers every
// delivered message to the node's data plane, which batches it toward the
// peer node. The *entry* is a passive component whose only job is owning a
// client port wired — through the ordinary membrane path, with its buffer,
// activation entry, and timing interceptors — into the real server; the
// node runtime injects the messages of received BATCH frames by sending on
// that port from an executive thread.
//
// Because both halves are real components in the slice, a distributed
// reload that re-shapes cross-node wiring is just a normal plan delta per
// node (gateways appear, disappear, and rebind through the existing
// DELTA-* machinery); only the route table (which peer, which remote end)
// is distribution-specific, and the node runtime re-applies it at commit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "comm/channel.hpp"
#include "comm/content.hpp"

namespace rtcf::dist {

class DataPlane;

/// Content-class name of gateway exits (registered at static-init time).
inline constexpr const char* kGatewayExitClass = "DistGatewayExit";
/// Content-class name of gateway entries (registered at static-init time).
inline constexpr const char* kGatewayEntryClass = "DistGatewayEntry";

/// Component name of the exit half of the bridge for (client, port).
std::string gateway_exit_name(const std::string& client,
                              const std::string& port);
/// Component name of the entry half of the bridge for (client, port).
std::string gateway_entry_name(const std::string& client,
                               const std::string& port);

/// Exit content: offers every delivered message to the node's DataPlane,
/// which batches it toward the peer addressed by the logical client end
/// (client, port) — the stable identity of the bridged binding. Unrouted
/// exits (before the node runtime configures them, or after an abort
/// discarded a staged route) and offers the plane drops count as drops.
class GatewayExitContent final : public comm::Content {
 public:
  /// Installs the route: messages are offered to `plane` under
  /// `route_id`. Pass a null plane to un-route.
  void set_route(DataPlane* plane, std::size_t route_id);

  /// Forwards one message (the sporadic activation body).
  void on_message(const comm::Message& message) override;

  /// Messages accepted by the data plane so far (sent or queued).
  std::uint64_t forwarded() const noexcept { return forwarded_; }
  /// Messages dropped because no route was configured, the peer was
  /// rejected, the route queue overflowed, or the channel refused the
  /// send.
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  DataPlane* plane_ = nullptr;
  std::size_t route_id_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Entry content: a port-holder. The node runtime delivers remote messages
/// by calling inject(), which sends on the entry's single client port and
/// rides the ordinary local async path into the real server.
class GatewayEntryContent final : public comm::Content {
 public:
  /// Delivers one remote message into the local server via `port_name`.
  /// Returns false (counting a drop) when the port is unknown or unbound.
  bool inject(const std::string& port_name, const comm::Message& message);

  /// Messages injected into the local assembly so far.
  std::uint64_t injected() const noexcept { return injected_; }
  /// Messages dropped on an unknown or unbound port.
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::uint64_t injected_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace rtcf::dist
