// Commands: the configuration half of the Pandora control plane.
//
// "Commands are used to set up the operations performed by each process...
// usually with reference to a stream number...  To set data flowing, it is
// necessary to allocate a new stream number, inform each process from the
// destination back to the source what is to be done to that stream, and
// then command the source to begin producing data." (section 1.1).
//
// Principle 4 demands that stream processing can never lock commands out;
// every process therefore lists its command channel as the FIRST guard of
// its alternation, and "a command will be received as soon as the process
// has finished dealing with any current segment" (section 3.4).
#ifndef PANDORA_SRC_CONTROL_COMMAND_H_
#define PANDORA_SRC_CONTROL_COMMAND_H_

#include <cstdint>
#include <string>

#include "src/runtime/channel.h"
#include "src/segment/constants.h"

namespace pandora {

enum class CommandVerb {
  // Generic:
  kReportStatus,  // answer with a report on the report channel
  kStop,          // stop handling the given stream

  // Decoupling buffers:
  kResizeBuffer,  // arg0 = new capacity (slots); adjusts without data loss

  // Switch / stream tables:
  kOpenRoute,     // arg0 = destination port id; adds a destination (P6)
  kCloseRoute,    // arg0 = destination port id; removes a destination (P6)
  kMoveRoute,     // arg0 = old destination, arg1 = new; atomic re-parent
                  // (overlay tree repair: no route-less window, P6)

  // Sources:
  kStartStream,    // begin producing data
  kSetBlocksPerSegment,  // arg0 = audio blocks per outgoing segment (1..12)
  kSetFrameRate,   // arg0/arg1 = frame rate fraction of 25Hz
};

struct Command {
  CommandVerb verb = CommandVerb::kReportStatus;
  StreamId stream = kInvalidStream;
  int64_t arg0 = 0;
  int64_t arg1 = 0;
};

using CommandChannel = Channel<Command>;

}  // namespace pandora

#endif  // PANDORA_SRC_CONTROL_COMMAND_H_
