#include "common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace rif {
namespace log_detail {

void
emit(const char *level, const std::string &msg)
{
    std::fprintf(stderr, "[%s] %s\n", level, msg.c_str());
    std::fflush(stderr);
}

void
exitFatal(const std::string &msg)
{
    // Never unlocked: the holder ends the process.
    static std::mutex first;
    first.lock();
    emit("fatal", msg);
    std::cout.flush();
    std::fflush(nullptr);
    std::_Exit(1);
}

} // namespace log_detail
} // namespace rif
